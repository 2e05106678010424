"""Sparse exact Laurent polynomials over a coefficient domain.

A polynomial is a dict mapping integer exponent vectors (tuples of fixed
length n) to nonzero coefficients.  The module also provides the
exponential map for affine exponents, the action of the affine simple
reflections and q-shifts on polynomials, exact division, and evaluation
at points with nonzero coordinates.

Exact division takes a divisor of one or two terms, which is every
denominator the engine has; a product of binomials is divided one
factor at a time.  A one-term divisor is a unit: a shift plus a scale.
A two-term divisor c_a x^a + c_b x^b goes through synthetic division:
multiplying by it maps each line e + k (a - b) of exponents into
itself, so each line of the dividend is divided on its own, as a
one-variable polynomial by a linear one, from the top of the line
down.  A nonzero remainder raises ExactDivisionError.
"""

from __future__ import annotations

from operator import add, index, sub

from .paramfield import _power


class ExactDivisionError(ArithmeticError):
    """Division left a nonzero remainder; a divisibility guarantee broke."""


def _grlex(e):
    return (sum(e), e)


class LaurentRing:
    """Factory for Laurent polynomials in n variables over a domain."""

    __slots__ = ("n", "domain")

    def __init__(self, n, domain):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        self.domain = domain

    def zero(self):
        return LaurentPolynomial(self, {})

    def one(self):
        return LaurentPolynomial(self, {(0,) * self.n: self.domain.one})

    def scalar(self, c):
        return LaurentPolynomial(self, {(0,) * self.n: c} if c else {})

    def monomial(self, exponents, coeff=None):
        e = tuple(map(index, exponents))
        if len(e) != self.n:
            raise ValueError("exponent vector has wrong length")
        c = self.domain.one if coeff is None else coeff
        return LaurentPolynomial(self, {e: c} if c else {})

    def gen(self, i, power=1):
        """The variable x_i (1-indexed) raised to an integer power."""
        if not 1 <= i <= self.n:
            raise ValueError("variable index out of range")
        e = [0] * self.n
        e[i - 1] = index(power)
        return self.monomial(e)

    def from_terms(self, mapping):
        terms = {}
        for e, c in mapping.items():
            e = tuple(map(index, e))
            if len(e) != self.n:
                raise ValueError("exponent vector has wrong length")
            if c:
                terms[e] = c
        return LaurentPolynomial(self, terms)

    def exp_monomial(self, vector, delta=0):
        """x^(v + k*delta) = q^(-k) * x1^v1 ... xn^vn."""
        return self.monomial(vector, self.domain.q_pow(-delta))

    def from_json(self, obj):
        if obj["n"] != self.n:
            raise ValueError("rank mismatch in polynomial JSON")
        return self.from_terms(
            {tuple(t["exp"]): self.domain.decode_scalar(t["coeff"])
             for t in obj["terms"]})


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial tied to a LaurentRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _check(self, other):
        if self.ring.n != other.ring.n:
            raise ValueError("polynomials from rings of different rank")

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            s = c if cur is None else cur + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPolynomial(self.ring, out)

    def __neg__(self):
        return LaurentPolynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            s = -c if cur is None else cur - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPolynomial(self.ring, out)

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            self._check(other)
            a, b = self.terms, other.terms
            if len(a) > len(b):
                a, b = b, a
            if len(a) == 1:
                # a monomial: a shift plus a scale, and no two products meet
                (e1, c1), = a.items()
                return LaurentPolynomial(
                    self.ring, {tuple(map(add, e1, e2)): c1 * c2
                                for e2, c2 in b.items()})
            out = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    cur = out.get(e)
                    s = c1 * c2 if cur is None else cur + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
            return LaurentPolynomial(self.ring, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if isinstance(c, int):
            c = self.ring.domain.from_int(c)
        if not c:
            return self.ring.zero()
        return LaurentPolynomial(self.ring, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, k):
        k = index(k)
        if k < 0:
            raise ValueError("negative polynomial power")
        return _power(self, k, self.ring.one())

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.ring.n == other.ring.n and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, exponents):
        return self.terms.get(tuple(exponents), self.ring.domain.zero)

    def support(self):
        return sorted(self.terms)

    def abs_degree(self):
        """Largest |e1| + ... + |en| over the support (0 for the zero poly)."""
        if not self.terms:
            return 0
        return max(sum(abs(x) for x in e) for e in self.terms)

    def evaluate(self, point):
        """Exact substitution x_i -> point_i; all coordinates must be nonzero.

        The domain sums the terms: a specialized domain over one common
        denominator, a symbolic one term by term."""
        point = tuple(point)
        if len(point) != self.ring.n:
            raise ValueError("evaluation point has wrong length")
        if any(not p for p in point):
            raise ValueError("evaluation point has a zero coordinate")
        return self.ring.domain.evaluate_terms(self.terms, point)

    def to_json(self):
        enc = self.ring.domain.encode_scalar
        return {
            "n": self.ring.n,
            "terms": [{"exp": list(e), "coeff": enc(c)}
                      for e, c in sorted(self.terms.items())],
        }

    def text(self):
        """Human-readable rendering, one term per '+'."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            factors = []
            for i, k in enumerate(e, start=1):
                if k == 1:
                    factors.append("x%d" % i)
                elif k:
                    factors.append("x%d^%d" % (i, k))
            cs = str(c)
            if any(ch in cs for ch in "+-/ ") and not cs.lstrip("-").isdigit():
                cs = "(%s)" % cs
            parts.append(cs if not factors else "%s*%s" % (cs, "*".join(factors)))
        return " + ".join(parts)

    def __repr__(self):
        return "LaurentPolynomial(%s)" % self.text()


# ---------------------------------------------------------------------------
# the affine generator action (algebra homomorphisms of the ring)

def apply_simple_reflection(i, f):
    """Act by the affine simple reflection s_i, 0 <= i <= n.

    s_0 sends x1 to q/x1, s_n inverts x_n, and the middle s_i swap
    adjacent variables.
    """
    ring = f.ring
    n = ring.n
    if i == 0:
        q_pow = _q_powers(ring)
        return LaurentPolynomial(
            ring, {(-e[0],) + e[1:]: c * q_pow(e[0]) if e[0] else c
                   for e, c in f.terms.items()})
    if i == n:
        return LaurentPolynomial(
            ring, {e[:-1] + (-e[-1],): c for e, c in f.terms.items()})
    if 0 < i < n:
        out = {}
        for e, c in f.terms.items():
            ne = list(e)
            ne[i - 1], ne[i] = ne[i], ne[i - 1]
            out[tuple(ne)] = c
        return LaurentPolynomial(ring, out)
    raise ValueError("reflection index out of range: %r" % (i,))


def apply_translation(i, f, sign=1):
    """The q-shift x_i -> q^sign * x_i (1-indexed i)."""
    ring = f.ring
    if not 1 <= i <= ring.n:
        raise ValueError("variable index out of range")
    q_pow = _q_powers(ring)
    out = {}
    for e, c in f.terms.items():
        k = e[i - 1]
        out[e] = c * q_pow(sign * k) if k else c
    return LaurentPolynomial(ring, out)


def _q_powers(ring):
    """k -> q^k, each power computed once for the lifetime of the returned
    function (one call of an action)."""
    q_pow, powers = ring.domain.q_pow, {}

    def power(k):
        p = powers.get(k)
        if p is None:
            p = powers[k] = q_pow(k)
        return p
    return power


# ---------------------------------------------------------------------------
# exact division

def exact_divide(f, g):
    """Return h with g*h == f, or raise ExactDivisionError.

    A failure signals a broken divisibility guarantee upstream.

    g has one or two terms: every denominator of the engine is a
    binomial, and a product of binomials is divided one factor at a
    time.  A one-term g is a unit of the Laurent ring, so h is f
    shifted and scaled.  A two-term g goes to _divide_binomial,
    synthetic division along the lines of exponents that g preserves.
    Its remainder check decides divisibility: f = g h splits into one
    equation per line, so g divides f iff it divides every line, and on
    one line it is division by a linear polynomial with nonzero constant
    term, where the quotient is unique and divisibility means a zero
    remainder.
    """
    if not g.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(g.terms) > 2:
        raise ValueError("exact_divide takes a divisor of at most two terms, "
                         "not %d" % len(g.terms))
    ring = f.ring
    if not f.terms:
        return ring.zero()
    if len(g.terms) == 2:
        return _divide_binomial(f, g)
    (e, c), = g.terms.items()
    return f * ring.monomial([-x for x in e], c ** (-1))


def _divide_binomial(f, g):
    """exact_divide for a two-term g = c_a x^a + c_b x^b, a the graded-lex
    leading exponent, by synthetic division along the lines e + k*w,
    w = a - b.

    Multiplying by g maps each line into itself, so f is divisible iff
    each of its lines is.  On the line through a base point p, f reads
    sum_k f_k x^(p + k w) and g*h = f says f_k = c_a h_k + c_b h_(k+1),
    h_k the coefficient of h at p + k w - a.  So from the top position
    down, h_k = f_k / c_a + rho h_(k+1) with rho = -c_b / c_a: the carry
    of synthetic division by y - rho, one addition per quotient term and
    a multiplication only where c_a or rho is not one.  At the line's
    lowest position the carry is h there, which must vanish: c_b times
    it would land below the lowest term of f.  That carry is the
    remainder.
    """
    ring = f.ring
    one = ring.domain.one
    (a, ca), (b, cb) = g.terms.items()
    if _grlex(a) < _grlex(b):
        a, ca, b, cb = b, cb, a, ca
    w = tuple(map(sub, a, b))
    # the base point of a line: its one point whose j-th exponent lies
    # in the half-open range from 0 toward w_j
    j = next(k for k, x in enumerate(w) if x)
    wj = w[j]
    inv = None if ca == one else ca ** (-1)
    rho = -cb if inv is None else -(cb * inv)
    if rho == one:
        rho = None
    lines = {}
    for e, c in f.terms.items():
        k = e[j] // wj
        base = tuple(x - k * y for x, y in zip(e, w)) if k else e
        lines.setdefault(base, {})[k] = c if inv is None else c * inv
    quot = {}
    for base, line in lines.items():
        top, bottom = max(line), min(line)
        # each step down the line moves the quotient exponent by -w
        e = tuple(x + top * y - z for x, y, z in zip(base, w, a))
        carry = line[top]
        for k in range(top - 1, bottom - 1, -1):
            if carry:
                quot[e] = carry
                if rho is not None:
                    carry = carry * rho
            e = tuple(map(sub, e, w))
            c = line.get(k)
            if c is not None:
                carry = carry + c if carry else c
        if carry:
            raise ExactDivisionError("nonzero remainder in exact division")
    return LaurentPolynomial(ring, quot)


def unit_normalize(f):
    """Split f as unit * canonical: returns (shift, lead_coeff, canon).

    canon is an honest polynomial (componentwise minimum exponent zero)
    with graded-lex leading coefficient one, and
    f == lead_coeff * x^shift * canon.
    """
    if not f.terms:
        raise ValueError("cannot unit-normalize the zero polynomial")
    ring = f.ring
    shift = tuple(min(e[i] for e in f.terms) for i in range(ring.n))
    shifted = {tuple(a - b for a, b in zip(e, shift)): c for e, c in f.terms.items()}
    lead = shifted[max(shifted, key=_grlex)]
    lead_inv = lead ** (-1)
    canon = LaurentPolynomial(ring, {e: c * lead_inv for e, c in shifted.items()})
    return shift, lead, canon
