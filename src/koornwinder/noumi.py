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

import itertools
from fractions import Fraction

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
        self._d_terms = None

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

    def _d_table(self):
        """The shift terms of D over one shared list of denominator factors.

        Returns (pieces, factors): factors are the distinct canonical
        (unit-normalized) denominator factors, and pieces holds one
        (i, direction, numerator, own) per shift term, i = 1..n and
        direction +1, -1 (-1 substitutes x_i -> 1/x_i), so that the term's
        coefficient is prod(numerator) / prod(factors[k] for k in own).
        The numerator is kept as its list of binomials and one monomial
        unit, which are cheaper to evaluate than their product.  Built
        once per representation.
        """
        if self._d_terms is not None:
            return self._d_terms
        ring, dom, n = self.ring, self.domain, self.n

        def one_minus(coeff, exp):
            return ring.one() - ring.monomial(exp, coeff)

        factors, pieces = [], []
        for i in range(1, n + 1):
            for d in (1, -1):
                xi = [0] * n
                xi[i - 1] = d
                num = [one_minus(coeff, xi)
                       for coeff in (dom.a, dom.b, dom.c, dom.d)]
                xi2 = [2 * x for x in xi]
                raw = [one_minus(dom.one, xi2), one_minus(dom.q, xi2)]
                for j in range(1, n + 1):
                    if j == i:
                        continue
                    for jpow in (-d, d):
                        exp = list(xi)
                        exp[j - 1] = jpow
                        num.append(one_minus(dom.t, exp))
                        raw.append(one_minus(dom.one, exp))
                unit = ring.one()
                own = []
                for fac in raw:
                    shift, lead, canon = unit_normalize(fac)
                    unit = unit * ring.monomial([-x for x in shift],
                                                lead ** (-1))
                    if canon not in factors:
                        factors.append(canon)
                    own.append(factors.index(canon))
                pieces.append((i, d, tuple(num) + (unit,), frozenset(own)))
        self._d_terms = (pieces, factors)
        return self._d_terms

    def koornwinder_d(self, f):
        """Koornwinder's operator; defined on the symmetric subspace.

        The reference operator: the sum of rational-coefficient shift
        terms is assembled over one common denominator and the final
        division must be exact; a nonzero remainder means the input was
        not in the stable subspace.  To test the eigen equation of a
        symmetric polynomial, d_eigen_holds is far cheaper.
        """
        ring = self.ring
        pieces, factors = self._d_table()
        total = ring.zero()
        for i, direction, numerator, own in pieces:
            term = apply_translation(i, f, direction) - f
            if not term:
                continue
            for p in numerator:
                term = term * p
            for k, fac in enumerate(factors):
                if k not in own:
                    term = term * fac
            total = total + term
        if not total:
            return ring.zero()
        denominator = ring.one()
        for fac in factors:
            denominator = denominator * fac
        try:
            return exact_divide(total, denominator)
        except ExactDivisionError:
            raise ValueError(
                "input is not in the stable (symmetric) subspace") from None

    def d_eigen_holds(self, f, lam):
        """Whether D f == E(lam) f, for a W0-invariant Laurent polynomial f.

        Decided exactly on a grid of (d+1)^n points, d the largest
        |exponent| of any variable in f, with no polynomial division.  The
        residual R = D f - E(lam) f is W0-invariant, since D commutes with
        W0 (which permutes its 2n shift terms), and by the triangularity
        of D on symmetric Laurent polynomials (Koornwinder, Contemp. Math.
        138, 1992, section 5) no exponent of R exceeds d in absolute
        value.  Being invariant under every x_i -> 1/x_i, R is a
        polynomial of degree <= d in each z_i = x_i + 1/x_i, and z is
        injective on x > 1.  So R vanishes identically once it vanishes on
        S_1 x ... x S_n for any sets S_i of d+1 integers >= 2 (Alon,
        Combin. Probab. Comput. 8, 1999, Lemma 2.1).  The S_i are pairwise
        disjoint and avoid the roots of 1 - q x^{+-2}, so no denominator
        factor of D vanishes on the grid, and each point tests
        R * prod(factors) = 0.  The equation is linear in f, so it is
        checked on f with its coefficient denominators cleared.
        """
        dom, n = self.domain, self.n
        if any(apply_simple_reflection(i, f) != f for i in range(1, n + 1)):
            raise ValueError("input is not W0-invariant")
        eigenvalue = self.d_eigenvalue(lam)
        if not f:
            return True
        f = f.scale(dom.common_denominator(f.terms.values()))
        pieces, factors = self._d_table()
        shifted = [(apply_translation(i, f, d), numerator, own)
                   for i, d, numerator, own in pieces]
        degree = max(abs(k) for e in f.terms for k in e)
        for point in itertools.product(*self._grid_sets(degree)):
            values = [fac.evaluate(point) for fac in factors]
            fx = f.evaluate(point)
            total = -eigenvalue
            for v in values:
                total = total * v
            total = total * fx
            for g, numerator, own in shifted:
                weight = dom.one
                for p in numerator:
                    weight = weight * p.evaluate(point)
                for k, v in enumerate(values):
                    if k not in own:
                        weight = weight * v
                total = total + weight * (g.evaluate(point) - fx)
            if total:
                return False
        return True

    def _grid_sets(self, degree):
        """n pairwise disjoint lists of degree + 1 integers >= 2, drawn in
        increasing order, skipping every x with 1 - q x^2 = 0 or
        1 - q x^-2 = 0 (as Fractions, so negative powers stay exact)."""
        q = self.domain.q
        pool = (Fraction(x) for x in itertools.count(2)
                if q * (x * x) != 1 and q != x * x)
        return [[next(pool) for _ in range(degree + 1)]
                for _ in range(self.n)]

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
