"""Affine Weyl group combinatorics for the type-C lattice action.

The affine group is generated by s_0, ..., s_n acting on Z^n; the finite
subgroup generated by s_1, ..., s_n consists of signed permutations.
This module provides both actions, the minimal-coset data attached to a
lattice point (its signed permutation, spectral vector and a generator
chain from the origin), and breadth-first enumeration of the finite
group with reduced words.

Convention (pinned by the spectral-vector consistency tests): a signed
permutation w acts by (w.v)_i = sign_i * v_{perm^{-1}(i)}, all indices
zero-based in code.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class SignedPermutation:
    """Element of the group {+-1}^n x S_n.

    perm[k] is the image of position k; signs[i] is the sign applied at
    target position i.
    """

    signs: tuple
    perm: tuple

    @classmethod
    def identity(cls, n):
        return cls(signs=(1,) * n, perm=tuple(range(n)))

    @classmethod
    def simple(cls, i, n):
        """The finite generator s_i, 1 <= i <= n."""
        if not 1 <= i <= n:
            raise ValueError("finite generator index out of range")
        if i == n:
            return cls(signs=(1,) * (n - 1) + (-1,), perm=tuple(range(n)))
        perm = list(range(n))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return cls(signs=(1,) * n, perm=tuple(perm))

    @property
    def n(self):
        return len(self.perm)

    def act(self, v):
        out = [0] * self.n
        for k in range(self.n):
            i = self.perm[k]
            out[i] = self.signs[i] * v[k]
        return tuple(out)

    def __mul__(self, other):
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        n = self.n
        if other.n != n:
            raise ValueError("rank mismatch")
        perm = tuple(self.perm[other.perm[k]] for k in range(n))
        inv1 = [0] * n
        for k, i in enumerate(self.perm):
            inv1[i] = k
        signs = tuple(self.signs[i] * other.signs[inv1[i]] for i in range(n))
        return SignedPermutation(signs=signs, perm=perm)

    def inverse(self):
        n = self.n
        perm = [0] * n
        for k, i in enumerate(self.perm):
            perm[i] = k
        signs = tuple(self.signs[self.perm[k]] for k in range(n))
        return SignedPermutation(signs=signs, perm=tuple(perm))


# ---------------------------------------------------------------------------
# the affine action on Z^n and on affine exponents

def _finite(i, v, last):
    """A finite s_i, 0 < i <= n = len(v), on the tuple v: entries i and
    i + 1 (one-based) swapped, or for i = n the last entry mapped by
    last.  ValueError for any other i."""
    if not 0 < i <= len(v):
        raise ValueError("reflection index out of range: %r" % (i,))
    if i == len(v):
        return tuple(v[:-1]) + (last(v[-1]),)
    out = list(v)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def affine_action(i, v):
    """s_i acting affinely on an integer vector."""
    if i == 0:
        return (-v[0] - 1,) + tuple(v[1:])
    return _finite(i, v, operator.neg)


def functional_action(i, v, delta):
    """s_i on an affine exponent v + delta*d; returns (v', delta')."""
    if i == 0:
        return (-v[0],) + tuple(v[1:]), delta - v[0]
    return affine_action(i, v), delta


def pairing(v, delta, u):
    """<v + delta*d, u> = sum v_i u_i + delta."""
    return sum(a * b for a, b in zip(v, u)) + delta


def braid_order(i, j, n):
    """Coxeter order of s_i s_j, or None for the infinite bond (n = 1)."""
    if i == j:
        raise ValueError("need two distinct generators")
    if i > j:
        i, j = j, i
    if j - i > 1:
        return 2
    if n == 1:
        return None  # single double-infinite bond: no braid relation
    if (i, j) == (0, 1) or (i, j) == (n - 1, n):
        return 4
    return 3


def coxeter_pairs(n):
    """All pairs (i, j, order) with i < j over generators 0..n."""
    out = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            m = braid_order(i, j, n)
            if m is not None:
                out.append((i, j, m))
    return out


def apply_word_affine(word, v):
    """Apply a product-order generator word: the rightmost letter acts first."""
    for i in reversed(word):
        v = affine_action(i, v)
    return v


def translation_word(i, n):
    """Product-order word realizing the translation by e_i on Z^n."""
    if not 1 <= i <= n:
        raise ValueError("translation index out of range")
    return tuple(range(i, n)) + tuple(range(n, -1, -1)) + tuple(range(1, i))


# ---------------------------------------------------------------------------
# minimal-coset data of a lattice point

def w_alpha(alpha):
    """The signed permutation sorting alpha to a partition.

    Signs are the signs of the entries (sign(0) = +1).  The permutation
    orders indices by decreasing absolute value; within a tie the
    nonnegative entries come first left-to-right, then the negative
    entries right-to-left.  Applying the inverse to alpha yields the
    weakly decreasing nonnegative reordering of the absolute values.
    """
    order = sorted(
        range(len(alpha)),
        key=lambda j: (-abs(alpha[j]),
                       0 if alpha[j] >= 0 else 1,
                       j if alpha[j] >= 0 else -j))
    signs = tuple(1 if x >= 0 else -1 for x in alpha)
    return SignedPermutation(signs=signs, perm=tuple(order))


def spectral_vector(alpha, domain):
    """The tuple of Y-eigenvalues attached to alpha.

    Component i is q^{alpha_i} * (s * t^(n-p))^{sign_i} where p is the
    1-indexed sorted position of index i under w_alpha.
    """
    n = len(alpha)
    w = w_alpha(alpha)
    pos = [0] * n
    for k, i in enumerate(w.perm):
        pos[i] = k
    out = []
    for i in range(n):
        base = domain.s * domain.t ** (n - 1 - pos[i])
        if w.signs[i] < 0:
            base = base ** (-1)
        value = domain.q_pow(alpha[i]) * base if alpha[i] else base
        out.append(value)
    return tuple(out)


def reflect_spectral(i, spec, domain):
    """The image of a spectral vector under s_i (componentwise on values)."""
    if i == 0:
        return (domain.q_pow(-1) * spec[0] ** (-1),) + tuple(spec[1:])
    return _finite(i, spec, lambda x: x ** (-1))


def chain_step(alpha):
    """The last letter of chain_to(alpha), for alpha nonzero.

    It walks the leftmost negative entry one slot left (s_0 cancels it
    at slot one); with no negative entry, it walks the rightmost
    positive entry one slot right (s_n flips it at slot n).  It depends
    on alpha alone, so chain_to(s_i alpha) is chain_to(alpha) without
    its last letter i.
    """
    for j, x in enumerate(alpha):
        if x < 0:
            return j
    return 1 + max(j for j, x in enumerate(alpha) if x > 0)


def chain_to(alpha):
    """A generator word carrying the origin to alpha.

    The word is in application order (first letter acts first), every
    step moves the vector, and s_0 occurs exactly |alpha_1| + ... +
    |alpha_n| times.  Built by reducing alpha to zero by chain_step and
    reversing.
    """
    word = []
    while any(alpha):
        word.append(chain_step(alpha))
        alpha = affine_action(word[-1], alpha)
    return tuple(reversed(word))


def is_partition(lam):
    """Is lam weakly decreasing and nonnegative?"""
    return all(a >= b for a, b in zip(lam, lam[1:])) and min(lam, default=0) >= 0


def partitions_up_to(n, weight):
    """All partitions with n parts (zeros allowed) of weight <= weight, sorted."""
    if weight < 0:
        # an empty list would let every check over it pass vacuously
        raise ValueError("weight must be nonnegative, got %d" % weight)
    out = [()]
    for _ in range(n):
        out = [lam + (k,) for lam in out
               for k in range((lam[-1] if lam else weight) + 1)
               if sum(lam) + k <= weight]
    return sorted(out)


def enumerate_W0(n):
    """All 2^n n! signed permutations with one reduced word each.

    Breadth-first search from the identity over right multiplication by
    the finite generators; the first word found is reduced.
    """
    if n > 6:
        raise ValueError("refusing to enumerate the finite Weyl group for "
                         "n > 6 (2^n * n! elements)")
    gens = [SignedPermutation.simple(i, n) for i in range(1, n + 1)]
    start = SignedPermutation.identity(n)
    out = [(start, ())]
    seen = {start}
    queue = deque(out)
    while queue:
        w, word = queue.popleft()
        for i, g in enumerate(gens, start=1):
            w2 = w * g
            if w2 not in seen:
                seen.add(w2)
                entry = (w2, word + (i,))
                out.append(entry)
                queue.append(entry)
    return out
