"""Checks computed apart from the engine, in plain Fractions.

Nothing here imports ``koornwinder``: every check reads the engine's
output as data (exponent tuples mapped to coefficients) and compares it
with a value this module computes by another route.

* ``askey_wilson`` -- the monic rank-one symmetric polynomial from the
  terminating 4phi3 series (Askey-Wilson, Mem. AMS 319, 1985).
* ``y_eigen_residues`` -- the Demazure-Lusztig ``T_i`` and the
  2n-letter ``Y_i`` words applied pointwise, as difference operators on
  a function of the point, never dividing polynomials.
* ``d_eigen_residue`` -- Koornwinder's q-difference operator evaluated
  pointwise, against its closed-form eigenvalue.
* ``is_invariant`` -- invariance under s_1..s_n on exponent vectors.
* ``specialize_num_den`` -- evaluate a symbolic coefficient's num/den
  dictionaries at the assignment.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


class Params:
    """The six square roots and the values derived from them."""

    def __init__(self, sqrts):
        (self.qs, self.ts, self.t0s, self.tns,
         self.u0s, self.uns) = (Fraction(v) for v in sqrts)
        self.sqrts = (self.qs, self.ts, self.t0s, self.tns, self.u0s, self.uns)
        self.q = self.qs ** 2
        self.t = self.ts ** 2
        # Askey-Wilson parameters of the rank-one reduction
        self.a = self.tns * self.uns
        self.b = -self.tns / self.uns
        self.c = self.qs * self.t0s * self.u0s
        self.d = -self.qs * self.t0s / self.u0s
        self.s = self.t0s * self.tns

    def half(self, i, n):
        """Square root of the Hecke parameter of generator i."""
        if i == 0:
            return self.t0s
        if i == n:
            return self.tns
        return self.ts


# ---------------------------------------------------------------------------
# lattice counting

def lattice_points(n, radius):
    """All integer vectors with |e_1| + ... + |e_n| <= radius."""
    out = [()]
    for _ in range(n):
        out = [e + (k,) for e in out for k in range(-radius, radius + 1)
               if sum(map(abs, e)) + abs(k) <= radius]
    return sorted(out)


def lattice_count(n, radius):
    """Number of lattice_points(n, radius), by the closed form."""
    return sum(2 ** k * math.comb(n, k) * math.comb(radius, k)
               for k in range(min(n, radius) + 1))


def partitions(n, weight):
    """Weakly decreasing nonnegative n-vectors of total at most weight."""
    out = []

    def grow(prefix, cap, left):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for k in range(min(cap, left), -1, -1):
            grow(prefix + [k], k, left - k)

    grow([], weight, weight)
    return sorted(out)


# ---------------------------------------------------------------------------
# the spectral-vector formula

def spectral_vector(alpha, p):
    """Y-eigenvalues of E_alpha: q^alpha_i (s t^(n-1-k_i))^sign_i.

    k_i is the place of index i when the indices are ordered by
    decreasing |alpha_j|, nonnegative entries first left to right, then
    negative entries right to left; sign_i is the sign of alpha_i with
    sign(0) = +1.
    """
    n = len(alpha)
    order = sorted(range(n), key=lambda j: (-abs(alpha[j]), alpha[j] < 0,
                                            j if alpha[j] >= 0 else -j))
    out = [None] * n
    for k, j in enumerate(order):
        base = p.s * p.t ** (n - 1 - k)
        if alpha[j] < 0:
            base = 1 / base
        out[j] = p.q ** alpha[j] * base
    return tuple(out)


def d_eigenvalue(lam, p):
    """Koornwinder's closed-form eigenvalue of D on P_lam."""
    n = len(lam)
    lead = p.a * p.b * p.c * p.d / p.q
    return sum(lead * p.t ** (2 * n - i - 1) * (p.q ** li - 1)
               + p.t ** (i - 1) * (p.q ** (-li) - 1)
               for i, li in enumerate(lam, start=1))


# ---------------------------------------------------------------------------
# rank one: Askey-Wilson

def _poch(x, q, k):
    out = Fraction(1)
    for j in range(k):
        out *= 1 - x * q ** j
    return out


def askey_wilson(m, p):
    """Monic P_(m) at n = 1 as {(e,): coeff}, with z = x_1.

    4phi3(q^-m, abcd q^(m-1), a z, a/z; ab, ac, ad; q, q), scaled so the
    coefficient of z^m is one.
    """
    q, a, b, c, d = p.q, p.a, p.b, p.c, p.d
    total = {}
    zpoly = {0: Fraction(1)}          # (az, a/z; q)_k as a Laurent polynomial
    for k in range(m + 1):
        if k:
            step = {1: -a * q ** (k - 1), 0: 1 + a * a * q ** (2 * k - 2),
                    -1: -a * q ** (k - 1)}
            prod = {}
            for e1, c1 in zpoly.items():
                for e2, c2 in step.items():
                    prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
            zpoly = prod
        weight = (_poch(q ** -m, q, k) * _poch(a * b * c * d * q ** (m - 1), q, k)
                  / (_poch(a * b, q, k) * _poch(a * c, q, k)
                     * _poch(a * d, q, k) * _poch(q, q, k)) * q ** k)
        for e, v in zpoly.items():
            total[e] = total.get(e, 0) + weight * v
    lead = total[m]
    return {(e,): v / lead for e, v in total.items() if v}


# ---------------------------------------------------------------------------
# pointwise evaluation

def evaluate(terms, x):
    """Sum of c * x^e over a {exponent tuple: coeff} dictionary."""
    total = Fraction(0)
    for e, c in terms.items():
        v = c
        for xi, k in zip(x, e):
            if k:
                v *= xi ** k
        total += v
    return total


def _reflect(i, x, p):
    """The point s_i x, so that (s_i f)(x) == f(s_i x)."""
    n = len(x)
    if i == 0:
        return (p.q / x[0],) + x[1:]
    if i == n:
        return x[:-1] + (1 / x[-1],)
    return x[:i - 1] + (x[i], x[i - 1]) + x[i + 1:]


def _t_fraction(i, x, p):
    n = len(x)
    if i == 0:
        return (x[0] - p.c) * (x[0] - p.d), x[0] * x[0] - p.q
    if i == n:
        return (1 - p.a * x[-1]) * (1 - p.b * x[-1]), 1 - x[-1] * x[-1]
    return x[i] - p.t * x[i - 1], x[i] - x[i - 1]


def t_pointwise(i, sign, g, p, n):
    """T_i^sign as an operator on functions of the point.

    T_i f = t_i^(1/2) f + t_i^(-1/2) num_i (s_i f - f) / den_i, and
    T_i^-1 has t_i^(-1/2) in front; memoized, since Y words revisit
    points of the affine orbit.
    """
    th = p.half(i, n)
    lead = th if sign > 0 else 1 / th
    memo = {}

    def h(x):
        v = memo.get(x)
        if v is None:
            num, den = _t_fraction(i, x, p)
            gx = g(x)
            v = lead * gx + num * (g(_reflect(i, x, p)) - gx) / (th * den)
            memo[x] = v
        return v
    return h


def y_word(i, n):
    """Y_i = T_i..T_{n-1} T_n..T_0 T_1^-1..T_{i-1}^-1, product order."""
    return ([(j, 1) for j in range(i, n)] + [(j, 1) for j in range(n, -1, -1)]
            + [(j, -1) for j in range(1, i)])


def y_eigen_residues(terms, spectrum, x, p):
    """(Y_i f)(x) - spectrum_i f(x) for i = 1..n; all zero for an eigenvector."""
    n = len(x)
    memo = {}

    def f(pt):
        v = memo.get(pt)
        if v is None:
            v = memo[pt] = evaluate(terms, pt)
        return v

    out = []
    for i in range(1, n + 1):
        g = f
        for j, sign in reversed(y_word(i, n)):
            g = t_pointwise(j, sign, g, p, n)
        out.append(g(x) - spectrum[i - 1] * f(x))
    return out


def d_eigen_residue(terms, lam, x, p):
    """(D f)(x) - E_lam f(x) for Koornwinder's operator

    D f = sum_i sum_(d = +-1) phi_i^d(x) (f(.., q^d x_i, ..) - f(x)),
    phi_i^d = prod_(u in a,b,c,d) (1 - u x_i^d)
              / ((1 - x_i^2d)(1 - q x_i^2d))
              * prod_(j != i, e = +-1) (1 - t x_i^d x_j^e) / (1 - x_i^d x_j^e).
    """
    n = len(x)
    fx = evaluate(terms, x)
    total = Fraction(0)
    for i in range(n):
        for d in (1, -1):
            xi = x[i] ** d
            phi = Fraction(1)
            for u in (p.a, p.b, p.c, p.d):
                phi *= 1 - u * xi
            phi /= (1 - xi * xi) * (1 - p.q * xi * xi)
            for j in range(n):
                if j == i:
                    continue
                for e in (1, -1):
                    m = xi * x[j] ** e
                    phi *= (1 - p.t * m) / (1 - m)
            shifted = x[:i] + (x[i] * p.q ** d,) + x[i + 1:]
            total += phi * (evaluate(terms, shifted) - fx)
    return total - d_eigenvalue(lam, p) * fx


def is_invariant(terms, n):
    """Invariance under s_1..s_n: adjacent swaps and x_n -> 1/x_n."""
    for i in range(1, n + 1):
        image = {}
        for e, c in terms.items():
            e2 = list(e)
            if i == n:
                e2[-1] = -e2[-1]
            else:
                e2[i - 1], e2[i] = e2[i], e2[i - 1]
            image[tuple(e2)] = c
        if image != terms:
            return False
    return True


def check_point(rng, n):
    """A rational point with pairwise distinct coordinates, none +-1."""
    while True:
        x = tuple(Fraction(rng.randint(2, 60), rng.randint(2, 60))
                  for _ in range(n))
        if len({abs(v) for v in x}) == n and all(abs(v) != 1 for v in x):
            return x


def pointwise_check(rng, n, residue):
    """Evaluate residue(point) at a seeded point, redrawing while the
    point hits a pole of the operator; True iff the residue vanishes."""
    for _ in range(20):
        try:
            return not any(residue(check_point(rng, n)))
        except ZeroDivisionError:
            continue
    raise RuntimeError("no pole-free check point in 20 draws")


# ---------------------------------------------------------------------------
# the engine's JSON and coefficient formats, read as data

def terms_from_json(report):
    """{exponent tuple: Fraction} from a polynomial JSON report, whose
    specialized coefficients are ints or "p/q" strings."""
    return {tuple(t["exp"]): Fraction(t["coeff"]) for t in report["terms"]}


def specialize_num_den(num, den, p):
    """Evaluate a symbolic coefficient stored as num/den dictionaries of
    doubled square-root exponents, at the assignment of ``p``."""
    def value(poly):
        total = Fraction(0)
        for e, c in poly.items():
            v = Fraction(c)
            for base, k in zip(p.sqrts, e):
                if k:
                    v *= base ** k
            total += v
        return total
    return value(num) / value(den)


def seeded_rng(seed, salt):
    return random.Random("%s:%s" % (seed, salt))
