"""The polynomial representation of the six-parameter Hecke algebra.

Operators act on Laurent polynomials and are never materialized as
matrices (the linear-algebra oracle does that separately).  Provided
here: the Demazure-Lusztig style generators T_i^{+-1}, multiplication
operators X_i^{+-1}, the commuting family Y_i built from the affine
translation words, the auxiliary elements U_0 and U_n, the one
dimensional character, the finite symmetrizer, Koornwinder's
q-difference operator with its eigenvalues, and a relation-check suite
for the defining presentation.
"""

from __future__ import annotations

from . import weyl
from .laurent import (LaurentRing, apply_simple_reflection, apply_translation,
                      exact_divide, unit_normalize, ExactDivisionError)


def character_value(word, domain, n):
    """The one dimensional character sending each T_i to t_i^(1/2)."""
    v = domain.one
    for i in word:
        v = v * domain.t_half(i, n)
    return v


def _invert_atoms(atoms):
    return tuple((tag, i, -s) for tag, i, s in reversed(atoms))


def _y_atoms(i, n):
    # (T_i ... T_{n-1}) (T_n ... T_0) (T_1^{-1} ... T_{i-1}^{-1}),
    # written in product order
    return (tuple(("t", j, 1) for j in range(i, n))
            + tuple(("t", j, 1) for j in range(n, -1, -1))
            + tuple(("t", j, -1) for j in range(1, i)))


class NoumiRepresentation:
    """Operators of the representation on a fixed Laurent ring."""

    def __init__(self, ring: LaurentRing):
        self.ring = ring
        self.n = ring.n
        self.domain = ring.domain
        self._t_half = {}
        self._t_half_inv = {}
        self._frac = {}
        for i in range(self.n + 1):
            th = self.domain.t_half(i, self.n)
            self._t_half[i] = th
            self._t_half_inv[i] = th ** (-1)
            self._frac[i] = self._t_fraction(i)
        self._y_words = {i: _y_atoms(i, self.n) for i in range(1, self.n + 1)}
        # U_0 = q^{-1/2} T_0^{-1} X_1 and U_n = X_1^{-1} T_0 Y_1^{-1}
        self._u0_word = (("qh", 0, -1), ("t", 0, -1), ("x", 1, 1))
        self._un_word = ((("x", 1, -1), ("t", 0, 1))
                         + _invert_atoms(self._y_words[1]))
        self._phi_cache = {}

    # -- generators ------------------------------------------------------

    def _t_fraction(self, i):
        """Numerator/denominator of the (s_i - 1) coefficient, cleared of
        negative powers by a common monomial (so the quotient is unchanged)."""
        ring, dom, n = self.ring, self.domain, self.n
        if i == 0:
            x1 = ring.gen(1)
            num = (x1 - ring.scalar(dom.c)) * (x1 - ring.scalar(dom.d))
            den = x1 * x1 - ring.scalar(dom.q)
        elif i == n:
            xn = ring.gen(n)
            num = (ring.one() - xn.scale(dom.a)) * (ring.one() - xn.scale(dom.b))
            den = ring.one() - xn * xn
        else:
            num = ring.gen(i + 1) - ring.gen(i).scale(dom.t)
            den = ring.gen(i + 1) - ring.gen(i)
        return num, den

    def t(self, i, f, sign=1):
        """Apply T_i (sign=+1) or T_i^{-1} (sign=-1)."""
        diff = apply_simple_reflection(i, f) - f
        lead = self._t_half[i] if sign > 0 else self._t_half_inv[i]
        if not diff:
            return f * lead
        num, den = self._frac[i]
        h = exact_divide(num * diff, den)
        return f * lead + h * self._t_half_inv[i]

    def x(self, i, f, sign=1):
        """Multiply by x_i^sign."""
        return f * self.ring.gen(i, 1 if sign > 0 else -1)

    def _apply_atoms(self, atoms, f, sign=1):
        if sign < 0:
            atoms = _invert_atoms(atoms)
        for tag, i, s in reversed(atoms):
            if tag == "t":
                f = self.t(i, f, s)
            elif tag == "x":
                f = self.x(i, f, s)
            else:  # scalar q^(s/2)
                f = f * self.domain.q_sqrt ** s
        return f

    def y(self, i, f, sign=1):
        """Apply Y_i^{+-1}, the Hecke lift of the translation by e_i."""
        return self._apply_atoms(self._y_words[i], f, sign)

    def u0(self, f, sign=1):
        return self._apply_atoms(self._u0_word, f, sign)

    def un(self, f, sign=1):
        return self._apply_atoms(self._un_word, f, sign)

    def t_word(self, word, f):
        """Apply T_w for a product-order reduced word over 1..n."""
        for i in reversed(word):
            f = self.t(i, f)
        return f

    # -- symmetrizer -------------------------------------------------------

    def symmetrizer(self, f):
        """The character-weighted average of the T_w over the finite group,
        sum_w chi(w) T_w / sum_w chi(w)^2 with chi(T_i) = t_i^(1/2).

        Acts as the identity on symmetric polynomials and projects onto
        them in general.  The sum factors along the parabolic chain
        W0 = W_1 > W_2 > ... > W_n, where W_m is generated by s_m, ..., s_n:
        every w in W_m is uniquely u*v with v in W_{m+1} and u a minimal
        coset representative, lengths adding (Bjorner-Brenti, parabolic
        factorization).  Those u are the right factors of the reduced word
        s_m s_{m+1} ... s_n ... s_{m+1} s_m, so applying its letters right
        to left, one T at a time, visits every T_u.  The sum over W0 is the
        product of these chain sums, innermost level W_n first, and the
        normalizer sum_w chi(w)^2 the product of the levels' sum_u chi(u)^2.
        Level m costs 2(n - m) + 1 applications of T, n^2 in all.
        """
        dom, n = self.domain, self.n
        norm = dom.one
        for m in range(n, 0, -1):
            total, g, chi, level_norm = f, f, dom.one, dom.one
            for i in tuple(range(m, n + 1)) + tuple(range(n - 1, m - 1, -1)):
                g = self.t(i, g)
                chi = chi * self._t_half[i]
                total = total + g * chi
                level_norm = level_norm + chi * chi
            f = total
            norm = norm * level_norm
        return f * norm ** (-1)

    # -- the q-difference operator ----------------------------------------

    def _phi_parts(self, i, direction):
        """Numerator polynomial and denominator factor list of the i-th
        rational coefficient (direction -1 substitutes x -> 1/x)."""
        key = (i, direction)
        if key in self._phi_cache:
            return self._phi_cache[key]
        ring, dom, n = self.ring, self.domain, self.n
        d = 1 if direction > 0 else -1

        def one_minus(coeff, exp):
            return ring.one() - ring.monomial(exp, coeff)

        def e(var, power):
            out = [0] * n
            out[var - 1] = power
            return tuple(out)

        num = ring.one()
        for coeff in (dom.a, dom.b, dom.c, dom.d):
            num = num * one_minus(coeff, e(i, d))
        factors = [one_minus(dom.one, e(i, 2 * d)), one_minus(dom.q, e(i, 2 * d))]
        for j in range(1, n + 1):
            if j == i:
                continue
            for jpow in (-d, d):
                exp = [0] * n
                exp[i - 1] = d
                exp[j - 1] = jpow
                num = num * one_minus(dom.t, tuple(exp))
                factors.append(one_minus(dom.one, tuple(exp)))
        self._phi_cache[key] = (num, factors)
        return num, factors

    def koornwinder_d(self, f):
        """Koornwinder's operator; defined on the symmetric subspace.

        The sum of rational-coefficient shift terms is assembled over one
        common denominator and the final division must be exact; a
        nonzero remainder means the input was not in the stable subspace.
        """
        ring = self.ring
        diffs = [(i, direction, apply_translation(i, f, direction) - f)
                 for i in range(1, self.n + 1) for direction in (1, -1)]
        if not any(diff for _, _, diff in diffs):
            return ring.zero()
        canon_factors = []   # distinct canonical denominator factors
        pieces = []          # (numerator, indices of its factors)
        for i, direction, diff in diffs:
            num, raw_factors = self._phi_parts(i, direction)
            unit = ring.one()
            idxs = []
            for fac in raw_factors:
                shift, lead, canon = unit_normalize(fac)
                unit = unit * ring.monomial(
                    tuple(-x for x in shift), lead ** (-1))
                for k, known in enumerate(canon_factors):
                    if known == canon:
                        idxs.append(k)
                        break
                else:
                    idxs.append(len(canon_factors))
                    canon_factors.append(canon)
            if diff:
                pieces.append((num * diff * unit, idxs))
        total = ring.zero()
        denominator = ring.one()
        for fac in canon_factors:
            denominator = denominator * fac
        for numerator, idxs in pieces:
            own = set(idxs)
            for k, fac in enumerate(canon_factors):
                if k not in own:
                    numerator = numerator * fac
            total = total + numerator
        if not total:
            return ring.zero()
        try:
            return exact_divide(total, denominator)
        except ExactDivisionError:
            raise ValueError(
                "input is not in the stable (symmetric) subspace") from None

    def d_eigenvalue(self, lam):
        """Eigenvalue of the q-difference operator on the partition lam."""
        dom, n = self.domain, self.n
        lam = tuple(lam)
        if not weyl.is_partition(lam):
            raise ValueError("expected a weakly decreasing nonnegative vector")
        lead = dom.q_pow(-1) * dom.a * dom.b * dom.c * dom.d
        total = dom.zero
        for i, li in enumerate(lam, start=1):
            total = (total
                     + lead * dom.t ** (2 * n - i - 1) * (dom.q_pow(li) - dom.one)
                     + dom.t ** (i - 1) * (dom.q_pow(-li) - dom.one))
        return total


# ---------------------------------------------------------------------------
# relation checks

def monomial_exponents(n, radius):
    """All integer vectors with |e_1| + ... + |e_n| <= radius, sorted."""
    out = [()]
    for _ in range(n):
        out = [e + (k,) for e in out
               for k in range(-radius, radius + 1)
               if sum(abs(x) for x in e) + abs(k) <= radius]
    return sorted(out)


def _alternating(rep, i, j, count, f):
    """T_i T_j T_i ... (count factors), applied rightmost first."""
    letters = [i if k % 2 == 0 else j for k in range(count)]
    for letter in reversed(letters):
        f = rep.t(letter, f)
    return f


def _relation_suite(rep):
    """Named operator identities; each entry maps f to lhs(f) - rhs(f)."""
    dom, n = rep.domain, rep.n
    checks = []
    for i in range(n + 1):
        def quad(f, i=i):
            gap = dom.t_half(i, n) - dom.t_half(i, n) ** (-1)
            return rep.t(i, f) - rep.t(i, f, -1) - f * gap
        checks.append(("quadratic T%d" % i, quad))
    for i, j, order in weyl.coxeter_pairs(n):
        def braid(f, i=i, j=j, order=order):
            return _alternating(rep, i, j, order, f) - _alternating(rep, j, i, order, f)
        checks.append(("braid T%d T%d (order %d)" % (i, j, order), braid))
    for i in range(n + 1):
        for j in range(1, n + 1):
            if not (abs(i - j) > 1 or (i == n and j == n - 1)):
                continue
            def commute(f, i=i, j=j):
                return rep.t(i, rep.x(j, f)) - rep.x(j, rep.t(i, f))
            checks.append(("commutation T%d X%d" % (i, j), commute))
    for i in range(1, n):
        def cross(f, i=i):
            return rep.t(i, rep.x(i, f)) - rep.x(i + 1, rep.t(i, f, -1))
        checks.append(("cross relation T%d X%d" % (i, i), cross))

    def rel_v(f):
        z = rep.x(n, rep.t(n, f, -1), -1)
        zinv = rep.t(n, rep.x(n, f))
        return z - zinv - f * (dom.un_sqrt - dom.un_sqrt ** (-1))
    checks.append(("quadratic X%d^-1 T%d^-1 (un)" % (n, n), rel_v))

    def rel_vi(f):
        return rep.u0(f) - rep.u0(f, -1) - f * (dom.u0_sqrt - dom.u0_sqrt ** (-1))
    checks.append(("quadratic U0 (u0)", rel_vi))
    return checks


def check_daha_relations(n, degree, domain):
    """Check every defining relation on all monomials of weight <= degree.

    Returns one report entry per relation: a dict with the relation name,
    "pass"/"fail" status and, on failure, the first witness monomial.
    """
    ring = LaurentRing(n, domain)
    rep = NoumiRepresentation(ring)
    exponents = monomial_exponents(n, degree)
    report = []
    for name, residual in _relation_suite(rep):
        entry = {"relation": name, "status": "pass"}
        for e in exponents:
            if residual(ring.monomial(e)):
                entry["status"] = "fail"
                entry["witness"] = list(e)
                break
        report.append(entry)
    return report
