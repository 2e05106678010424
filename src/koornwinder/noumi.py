"""The polynomial representation of the six-parameter Hecke algebra.

Operators act on Laurent polynomials and are never materialized as
matrices (the linear-algebra oracle does that separately).  Provided
here: the Demazure-Lusztig style generators T_i^{+-1}, multiplication
operators X_i^{+-1}, and compositions of them: the commuting family Y_i,
each the T-word of weyl.translation_word, and the auxiliary elements
U_0 and U_n.  Also the one dimensional character, the finite
symmetrizer, Koornwinder's q-difference operator with its eigenvalues,
and a relation-check suite for the defining presentation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import add

from . import weyl
from .laurent import (LaurentPolynomial, LaurentRing, _reduced, _times,
                      apply_simple_reflection, apply_translation,
                      exact_divide, unit_normalize, ExactDivisionError)
from .paramfield import _evaluate, _merged, _sub


def character_value(word, domain, n):
    """The one dimensional character sending each T_i to t_i^(1/2)."""
    v = domain.one
    for i in word:
        v = v * domain.t_half(i, n)
    return v


def _check_sign(sign):
    """sign, which must be 1 or -1: the exponent of an operator."""
    if sign != 1 and sign != -1:
        raise ValueError("sign must be 1 or -1, not %r" % (sign,))
    return sign


def _over(c, d, m):
    """The numerator of c / d over the multiple m of d."""
    return c if d == m else c * (m // d)


def _pair_product(pairs):
    """The product of (numerator, denominator) pairs, as one pair."""
    n, d = pairs[0]
    for a, b in pairs[1:]:
        n, d = n * a, d * b
    return n, d


def _pair_sum(u, v):
    """u + v for (numerator, denominator) pairs, by cross multiplication."""
    (a, b), (c, d) = u, v
    if b == d:
        return a + c, b
    return a * d + c * b, b * d


class NoumiRepresentation:
    """Operators of the representation on a fixed Laurent ring."""

    def __init__(self, ring: LaurentRing):
        self.ring = ring
        self.n = ring.n
        self.domain = ring.domain
        self._t_half = {}
        self._t_half_inv = {}
        self._split = {}
        for i in range(self.n + 1):
            th = self.domain.t_half(i, self.n)
            self._t_half[i] = th
            self._t_half_inv[i] = th ** (-1)
            self._split[i] = self._t_split(i)
        # (letter, sign) in application order.  Y_i: the translation word,
        # last i - 1 letters inverted, rightmost first; Y_i^{-1}: leftmost
        # first, every letter inverted
        self._y_letters = {}
        for i in range(1, self.n + 1):
            word = weyl.translation_word(i, self.n)
            product = [(j, 1 if k < len(word) - (i - 1) else -1)
                       for k, j in enumerate(word)]
            self._y_letters[i, 1] = product[::-1]
            self._y_letters[i, -1] = [(j, -s) for j, s in product]
        self._d_terms = None

    # -- generators ------------------------------------------------------

    def _t_split(self, i):
        """{sign: (den, a, g, rest, m)}: the constants of T_i^sign in
        remainder form, over one int denominator m.

        num_i and den_i are cleared of negative powers.  den is den_i
        over its graded-lex leading term and num is t_i^(-1/2) num_i over
        the same term; alpha is num's coefficient at den's leading
        monomial and rest = num - alpha den.  With the gap
        t_i^(sign/2) - alpha, the coefficient of f in T_i^sign f, a / m
        is alpha, g / m the gap (None when it is zero) and rest the
        items of rest's numerators over m.  In a domain whose split
        gives (c, 1), m is 1 and a, g and rest hold its own scalars.
        """
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
        shift, lead, den = unit_normalize(den)
        num = num * ring.monomial([-x for x in shift],
                                  (lead * self._t_half[i]) ** (-1))
        alpha = num.coefficient(max(den.num, key=lambda e: (sum(e), e)))
        rest = num - den.scale(alpha)
        out = {}
        for sign, half in ((1, self._t_half[i]), (-1, self._t_half_inv[i])):
            (an, ad), (gn, gd) = dom.split(alpha), dom.split(half - alpha)
            m = lcm(ad, gd, rest.den)
            out[sign] = (den, _over(an, ad, m), _over(gn, gd, m) if gn else None,
                         tuple(_times(rest.num, m // rest.den).items()), m)
        return out

    def t(self, i, f, sign=1):
        """Apply T_i (sign=+1) or T_i^{-1} (sign=-1):
        t_i^(+-1/2) f + t_i^(-1/2) num_i (s_i f - f) / den_i.

        The reflection difference is divided before it is multiplied, so
        the division runs on the smaller dividend.  It is exact at every
        i: for 0 < i < n, s_i f - f is antisymmetric in x_i, x_(i+1) and
        so divisible by x_(i+1) - x_i; for i = n and i = 0 each monomial
        contributes u^m - v^m with u - v equal to den_i up to a unit
        (u, v = x_n^(-1), x_n and q x_1^(-1), x_1), and u - v divides
        u^m - v^m.

        The coefficient is applied in remainder form (see _t_split).
        Scaling num_i and den_i by one unit leaves their quotient alone,
        so t_i^(-1/2) num_i / den_i = num / den with den monic, and
        num = alpha den + rest.  With Q = (s_i f - f) / den,
            t_i^(-1/2) num_i (s_i f - f) / den_i = num Q
                = alpha (s_i f - f) + rest Q,
        so T_i^(+-1) f = (t_i^(+-1/2) - alpha) f + alpha s_i f + rest Q,
        the same polynomial as the formula above.  den is x_i - x_(i+1),
        x_n^2 - 1 or x_1^2 - q, so exact_divide finds Q by running sums
        (times q at i = 0), and rest has one term for 0 < i < n, two at
        i = 0, n.  alpha is t_i^(1/2) for i > 0 (at i = n since ab = -t_n)
        and t_0^(-1/2) at i = 0, so the f term drops out of T_i for i > 0
        and of T_0^(-1).

        The sum is formed fraction-free, in one pass and one reduction.
        s_i f and f are put over low, the lcm of their denominators, as
        numerator dicts r and p, so s_i f - f = (r - p) / low.  Division
        by den is linear, so dividing the numerators r - p alone, over
        denominator 1, gives (r - p) / den = Q low, returned as q / e
        with q its numerators and e an int.  With a / m, g / m and rest / m
        the constants of _t_split, the three terms are (g / m)(p / low),
        (a / m)(r / low) and (rest / m)(q / (e low)), so
            T_i^(+-1) f = (g e p + a e r + rest q) / (m low e):
        one dict of numerators over one int, which _reduced brings to
        the reduced form, the same (num, den) as any other route to the
        same polynomial.  Over a domain whose split gives (c, 1), such as
        the symbolic ones, the same code runs with m = low = e = 1.
        """
        _check_sign(sign)
        reflected = apply_simple_reflection(i, f)
        low = lcm(reflected.den, f.den)
        rn = _times(reflected.num, low // reflected.den)
        fn = _times(f.num, low // f.den)
        diff = _sub(rn, fn)
        if not diff:
            return f.scale(self._t_half[i] if sign > 0 else self._t_half_inv[i])
        den, a, g, rest, m = self._split[i][sign]
        q = exact_divide(LaurentPolynomial(self.ring, diff), den)
        e = q.den
        if e != 1:
            a = a * e
            g = g and g * e
        out = {x: c * a for x, c in rn.items()}
        if g:
            _merged(out, {x: c * g for x, c in fn.items()})
        for shift, r in rest:
            _merged(out, {tuple(map(add, x, shift)): c * r
                          for x, c in q.num.items()})
        return _reduced(self.ring, out, m * low * e)

    def x(self, i, f, sign=1):
        """Multiply by x_i^sign."""
        return f * self.ring.gen(i, _check_sign(sign))

    def y(self, i, f, sign=1):
        """Apply Y_i^{+-1}, the Hecke lift of the translation by e_i."""
        for j, s in self._y_letters[i, _check_sign(sign)]:
            f = self.t(j, f, s)
        return f

    def u0(self, f, sign=1):
        """Apply U_0 = q^{-1/2} T_0^{-1} X_1, or its inverse
        X_1^{-1} T_0 q^{1/2}."""
        if _check_sign(sign) > 0:
            return self.t(0, self.x(1, f), -1) * self.domain.q_sqrt ** (-1)
        return self.x(1, self.t(0, f * self.domain.q_sqrt), -1)

    def un(self, f, sign=1):
        """Apply U_n = X_1^{-1} T_0 Y_1^{-1}, or its inverse
        Y_1 T_0^{-1} X_1."""
        if _check_sign(sign) > 0:
            return self.x(1, self.t(0, self.y(1, f, -1)), -1)
        return self.y(1, self.t(0, self.x(1, f), -1))

    def t_word(self, word, f):
        """Apply T_w for a product-order word over 0..n."""
        for i in reversed(word):
            f = self.t(i, f)
        return f

    # -- symmetrizer -------------------------------------------------------

    def symmetrizer(self, f):
        """The character-weighted average of the T_w over the finite group,
        sum_w chi(w) T_w / sum_w chi(w)^2 with chi(T_i) = t_i^(1/2).

        Acts as the identity on symmetric polynomials and projects onto
        them in general.  It is the sum of _symmetrizer_sum times the
        inverse of its normalizer.
        """
        total, norm = self._symmetrizer_sum(f)
        return total.scale(norm ** (-1))

    def _symmetrizer_sum(self, f):
        """(sum_w chi(w) T_w f, sum_w chi(w)^2): the symmetrizer's sum and
        its normalizer, kept apart so that a caller that rescales the
        image anyway never scales by the normalizer.

        The sum factors along the parabolic chain
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
        return f, norm

    # -- the q-difference operator ----------------------------------------

    def _d_table(self):
        """The shift terms of D over one shared list of denominator factors.

        Returns (pieces, factors): factors are the distinct canonical
        (unit-normalized) denominator factors, and pieces holds one
        (i, direction, numerator, own) per shift term, i = 1..n and
        direction +1, -1 (-1 substitutes x_i -> 1/x_i), so that the term's
        coefficient is prod(numerator) / prod(factors[k] for k in own).
        The numerator is kept as its list of binomials and one monomial
        unit.  Built once per representation.
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
        terms is assembled over one common denominator, the product of
        the binomial factors of _d_table, and divided by those factors
        one at a time.  Each division must be exact; a nonzero remainder
        means the input was not in the stable subspace.  This is the
        same statement as one division by the product, since the Laurent
        ring is an integral domain: if total = f_1...f_k h, every step
        is exact and the last quotient is h, because quotients are
        unique; and if every step is exact, the product divides total.
        To test the eigen equation of a symmetric polynomial,
        d_eigen_holds is far cheaper.
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
        try:
            for fac in factors:
                total = exact_divide(total, fac)
        except ExactDivisionError:
            raise ValueError(
                "input is not in the stable (symmetric) subspace") from None
        return total

    def d_eigen_holds(self, f, lam):
        """Whether D f == E(lam) f, for a W0-invariant Laurent polynomial f.

        Decided exactly at the C(d+n, n) strictly increasing n-tuples from
        one pool S of d+n integers >= 2, d the largest |exponent| of any
        variable in f, with no polynomial division.  The residual
        R = D f - E(lam) f is W0-invariant, since D commutes with W0
        (which permutes its 2n shift terms), and by the triangularity of
        D on symmetric Laurent polynomials (Koornwinder, Contemp. Math.
        138, 1992, section 5) no exponent of R exceeds d in absolute
        value.  So R is a symmetric polynomial of degree <= d in each
        z_i = x_i + 1/x_i, and A = R * prod_{i<j} (z_i - z_j) is
        antisymmetric of degree <= d+n-1 in each z_i.  If R vanishes at
        the increasing tuples, A vanishes on all of S^n: a tuple with a
        repeated coordinate makes the product zero, and any other is a
        permutation of an increasing one.  z is injective on x > 1, so S
        gives d+n distinct z-values, and A vanishes identically (Alon,
        Combin. Probab. Comput. 8, 1999, Lemma 2.1); the product does
        not, so neither does R.

        D f = sum_{i, +-} Phi_i^+-(x) (f(x_i -> q^+-1 x_i) - f(x)), with
        Koornwinder's coefficient
            Phi_i^+-(x) = (1 - a y)(1 - b y)(1 - c y)(1 - d y)
                          / ((1 - y^2)(1 - q y^2))
                          * prod_{j != i} (1 - t y x_j)(1 - t y / x_j)
                                          / ((1 - y x_j)(1 - y / x_j)),
        y = x_i^+-1.  Each point tests Q R = 0 with Q = prod_{i, +-}
        (1 - q x_i^+-2), which is nonzero there because S avoids the roots
        of 1 - q x^+-2.  The other denominator factors are free of the
        parameters and nonzero at a point as well: 1 - x^+-2 has no root
        at x >= 2, and the coordinates are distinct integers >= 2, so no
        1 - x_i^+-1 x_j^+-1 vanishes.  So Q Phi_i^+- is computed at the
        point as the product of its numerator factors with the other
        2n - 1 factors of Q, divided by those parameter-free factors.

        f enters only through its values at the point and at the 2n
        points with one coordinate x_i moved to q^+-1 x_i.  The q-shift
        of f in x_i is by definition f(x_1, .., q^+-1 x_i, .., x_n), so
        its value at the point is f's value at the moved point, and no
        shifted polynomial is built.  f's denominator is dropped: with
        f = h / L, L a nonzero scalar and h = sum_e h_e x^e with the h_e
        in the ring of domain.parts (domain.cleared), D commutes with
        multiplication by scalars, so D f - E(lam) f = (D h - E(lam) h) / L
        and R vanishes at a point exactly when the residual of h does.
        The check runs on h, evaluated by paramfield._evaluate with each
        coordinate a pair: x_j is (x_j, 1), and a moved x_i is
        (q_n x_i, q_d) for q x_i or (q_d x_i, q_n) for x_i / q, with
        q = q_n / q_d.

        The arithmetic is fraction-free.  Every value is a pair (N, D)
        standing for N / D, with N and D in the ring of domain.parts
        (the integers, or the Laurent polynomials in the six square
        roots), whose + and * never take a gcd: pairs multiply as
        (a c, b d) and add by cross multiplication, (a d + c b, b d), or
        (a + c, b) when the denominators are equal.  With y = r / s,
        r and s the ints (x, 1) or (1, x), and p = p_n / p_d for each
        parameter, every factor is a pair of ring elements:
        1 - p y = (p_d s - p_n r) / (p_d s),
        1 - q y^2 = (q_d s^2 - q_n r^2) / (q_d s^2),
        1 - t y x_j^+-1 = (t_d s - t_n r x_j) / (t_d s) and
        (t_d s x_j - t_n r) / (t_d s x_j), and the parameter-free
        divisor is the int pair built from s^2 - r^2, s - r x_j and
        s x_j - r over s^2, s and s x_j.  Every denominator is a product
        of nonzero factors: parameter denominators, the denominators
        _evaluate returns for h (products of powers of q_n, q_d and the
        coordinates), powers of s and of the coordinates, and the values
        of the parameter-free factors, all nonzero by the above.  The
        ring is an integral domain, so the final denominator is nonzero,
        and Q R = 0 at the point exactly when the final numerator is
        zero.
        """
        dom, n = self.domain, self.n
        if any(apply_simple_reflection(i, f) != f for i in range(1, n + 1)):
            raise ValueError("input is not W0-invariant")
        eigenvalue = self.d_eigenvalue(lam)
        if not f:
            return True
        nums, _ = dom.cleared(f.num)
        degree = max(abs(k) for e in nums for k in e)
        parts = dom.parts
        abcd = [parts(p) for p in (dom.a, dom.b, dom.c, dom.d)]
        tn, td = parts(dom.t)
        qn, qd = parts(dom.q)
        minus_e = parts(-eigenvalue)
        for point in itertools.combinations(self._grid_pool(degree), n):
            xs = [x.numerator for x in point]
            at = [(x, 1) for x in xs]
            fn, fd = _evaluate(nums, 1, at)
            # y = x_i^+-1 = r / s, x_i moved to q^+-1 x_i, and the factors
            # of Q, each in the order i = 1..n, then +-
            ys = [(x, 1) if d > 0 else (1, x) for x in xs for d in (1, -1)]
            moved = [(qn * x, qd) if d > 0 else (qd * x, qn)
                     for x in xs for d in (1, -1)]
            qs = [(qd * (s * s) - qn * (r * r), qd * (s * s)) for r, s in ys]
            total = _pair_product(qs + [minus_e, (fn, fd)])
            for k, (r, s) in enumerate(ys):
                i = k // 2
                others = xs[:i] + xs[i + 1:]
                factors = [(pd * s - pn * r, pd * s) for pn, pd in abcd]
                free_n, free_d = s * s - r * r, s * s
                for x in others:
                    factors.append((td * s - tn * (r * x), td * s))
                    factors.append((td * (s * x) - tn * r, td * (s * x)))
                    free_n *= (s - r * x) * (s * x - r)
                    free_d *= s * (s * x)
                gn, gd = _evaluate(nums, 1, at[:i] + [moved[k]] + at[i + 1:])
                factors += qs[:k] + qs[k + 1:]
                # divided by the parameter-free factors, times g - f
                factors += [(free_d, free_n), _pair_sum((gn, gd), (-fn, fd))]
                total = _pair_sum(total, _pair_product(factors))
            if total[0]:
                return False
        return True

    def _grid_pool(self, degree):
        """degree + n increasing integers >= 2, skipping every x with
        1 - q x^2 = 0 or 1 - q x^-2 = 0 (as Fractions, so negative powers
        stay exact)."""
        q = self.domain.q
        pool = (Fraction(x) for x in itertools.count(2)
                if q * (x * x) != 1 and q != x * x)
        return list(itertools.islice(pool, degree + self.n))

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
    if radius < 0:
        # an empty ball would let every check over it pass vacuously
        raise ValueError("radius must be nonnegative, got %d" % radius)
    out = [()]
    for _ in range(n):
        out = [e + (k,) for e in out
               for k in range(-radius, radius + 1)
               if sum(abs(x) for x in e) + abs(k) <= radius]
    return sorted(out)


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
            # T_i T_j T_i ... against T_j T_i T_j ..., order letters each
            return (rep.t_word(((i, j) * order)[:order], f)
                    - rep.t_word(((j, i) * order)[:order], f))
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
