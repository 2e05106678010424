"""Sparse exact Laurent polynomials over a coefficient domain.

A polynomial is a dict ``num`` mapping integer exponent vectors (tuples
of fixed length n) to nonzero numerators, over one positive integer
denominator ``den``.  Over a specialized domain the numerators are
ints, and the form is kept reduced: den and the content (the gcd of the
numerators) are coprime, so equal polynomials have equal (num, den).
This is the fraction-free representation of Geddes, Czapor and Labahn
(Algorithms for Computer Algebra, 1992): an operation reduces by one
gcd over all its numerators instead of one gcd per coefficient.  The
domain's split and join hooks convert between its scalars and
(numerator, denominator) pairs; a symbolic domain splits c into (c, 1),
so its polynomials keep their scalar coefficients over den 1 and run
the same code.  split also takes an int, and the symbolic domain's a
Fraction, and raises TypeError on anything else that is not a scalar of
the domain, so a polynomial stores only the numerators its domain makes.
``terms`` is a fresh dict of domain scalars, for readers.  Sums,
differences and products put both numerator dicts over the lcm of the
denominators and run paramfield's term-dictionary kernels: a product is
the _merged sum of the larger operand shifted and scaled by each term of
the smaller.  The module also provides the exponential map for affine
exponents, the action of the affine simple reflections and q-shifts on
polynomials, exact division, and evaluation at points with nonzero
coordinates.

Exact division takes a divisor of one or two terms, which is every
denominator the engine has; a product of binomials is divided one
factor at a time.  A one-term divisor is a unit: a shift plus a scale.
A two-term divisor c_a x^a + c_b x^b goes through synthetic division:
multiplying by it maps each line e + k (a - b) of exponents into
itself, so each line of the dividend is divided on its own, as a
one-variable polynomial by a linear one, from the top of the line
down (_lines, _divide_lines, _line_terms; polynomials divides symbolic
coefficients by the factors of a chain with the same kernel).  A
nonzero remainder raises ExactDivisionError.  Over the
integers the divisor is first divided by its content, which leaves a
primitive binomial G.  By Gauss's lemma a product of primitive
polynomials is primitive, so if G h = F for an integer F, h has integer
coefficients; every step of the synthetic division is then an exact
int division, and a step that leaves a remainder proves that G does
not divide F.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, lcm
from operator import add, index, sub

from .paramfield import _add, _merged, _neg, _power, _sub


class ExactDivisionError(ArithmeticError):
    """Division left a nonzero remainder; a divisibility guarantee broke."""


def _grlex(e):
    return (sum(e), e)


class LaurentRing:
    """Factory for Laurent polynomials in n variables over a domain."""

    __slots__ = ("n", "domain", "_q_powers")

    def __init__(self, n, domain):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        self.domain = domain
        self._q_powers = {}     # k -> q^k split into (numerator, denominator)

    def zero(self):
        return LaurentPolynomial(self, {})

    def one(self):
        return self.monomial((0,) * self.n)

    def scalar(self, c):
        return self.monomial((0,) * self.n, c)

    def monomial(self, exponents, coeff=None):
        e = tuple(map(index, exponents))
        if len(e) != self.n:
            raise ValueError("exponent vector has wrong length")
        c, den = self.domain.split(self.domain.one if coeff is None else coeff)
        return LaurentPolynomial(self, {e: c}, den) if c else self.zero()

    def gen(self, i, power=1):
        """The variable x_i (1-indexed) raised to an integer power."""
        if not 1 <= i <= self.n:
            raise ValueError("variable index out of range")
        e = [0] * self.n
        e[i - 1] = index(power)
        return self.monomial(e)

    def from_terms(self, mapping):
        """The polynomial sum c x^e over a mapping {e: c} of scalars."""
        split, parts = self.domain.split, {}
        for e, c in mapping.items():
            e = tuple(map(index, e))
            if len(e) != self.n:
                raise ValueError("exponent vector has wrong length")
            c, d = split(c)
            if c:
                parts[e] = c, d
        # over the lcm of reduced denominators the form is already reduced
        den = lcm(*(d for _, d in parts.values()))
        return LaurentPolynomial(self, {e: c if d == den else c * (den // d)
                                        for e, (c, d) in parts.items()}, den)

    def exp_monomial(self, vector, delta=0):
        """x^(v + k*delta) = q^(-k) * x1^v1 ... xn^vn."""
        return self.monomial(vector, self.domain.q_pow(-delta))

    def from_json(self, obj):
        if obj["n"] != self.n:
            raise ValueError("rank mismatch in polynomial JSON")
        return self.from_terms(
            {tuple(t["exp"]): self.domain.decode_scalar(t["coeff"])
             for t in obj["terms"]})

    def _q_power(self, k):
        """q^k as a (numerator, denominator) pair, computed once per ring."""
        parts = self._q_powers.get(k)
        if parts is None:
            parts = self._q_powers[k] = self.domain.split(self.domain.q_pow(k))
        return parts


def _times(num, m):
    """The numerators num, each multiplied by m; num itself if m is 1."""
    return num if m == 1 else {e: c * m for e, c in num.items()}


def _reduced(ring, num, den):
    """The polynomial num / den with den and the content made coprime."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return LaurentPolynomial(ring, num, den)


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial tied to a LaurentRing: the
    numerators num over the positive int den (see the module docstring)."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, num, den=1):
        self.ring = ring
        self.num = num
        self.den = den

    @property
    def terms(self):
        """{exponent: coefficient} as domain scalars, in a fresh dict."""
        join, den = self.ring.domain.join, self.den
        return {e: join(c, den) for e, c in self.num.items()}

    def _check(self, other):
        if self.ring.n != other.ring.n:
            raise ValueError("polynomials from rings of different rank")

    def _combined(self, other, kernel):
        """kernel(a, b), paramfield's _add or _sub, of the numerators of
        self and other over the lcm of their denominators."""
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check(other)
        a, b, d1, d2 = self.num, other.num, self.den, other.den
        if d1 == d2:
            return _reduced(self.ring, kernel(a, b), d1)
        den = lcm(d1, d2)
        return _reduced(self.ring, kernel(_times(a, den // d1),
                                          _times(b, den // d2)), den)

    def __add__(self, other):
        return self._combined(other, _add)

    def __sub__(self, other):
        return self._combined(other, _sub)

    def __neg__(self):
        return LaurentPolynomial(self.ring, _neg(self.num), self.den)

    def __mul__(self, other):
        """The product: the sum, by paramfield's _merged, of the larger
        operand shifted and scaled by each term of the smaller."""
        if not isinstance(other, LaurentPolynomial):
            return self.scale(other)
        self._check(other)
        a, b = self.num, other.num
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return self.ring.zero()
        shifted = ({tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in b.items()}
                   for e1, c1 in a.items())
        return _reduced(self.ring, reduce(_merged, shifted),
                        self.den * other.den)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c, d = self.ring.domain.split(c)
        if not c:
            return self.ring.zero()
        return _reduced(self.ring, _times(self.num, c), self.den * d)

    def __pow__(self, k):
        k = index(k)
        if k < 0:
            raise ValueError("negative polynomial power")
        return _power(self, k, self.ring.one())

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        # both forms are reduced, so equal polynomials have equal parts
        return (self.ring.n == other.ring.n and self.den == other.den
                and self.num == other.num)

    def __bool__(self):
        return bool(self.num)

    def coefficient(self, exponents):
        c = self.num.get(tuple(exponents))
        dom = self.ring.domain
        return dom.zero if c is None else dom.join(c, self.den)

    def support(self):
        return sorted(self.num)

    def abs_degree(self):
        """Largest |e1| + ... + |en| over the support (0 for the zero poly)."""
        if not self.num:
            return 0
        return max(sum(abs(x) for x in e) for e in self.num)

    def evaluate(self, point):
        """Exact substitution x_i -> point_i; all coordinates must be nonzero.

        The domain sums the terms over one common denominator, with
        paramfield._evaluate: a specialized one in ints, a symbolic one
        in Laurent scalars, with one field element made at the end."""
        point = tuple(point)
        if len(point) != self.ring.n:
            raise ValueError("evaluation point has wrong length")
        if any(not p for p in point):
            raise ValueError("evaluation point has a zero coordinate")
        return self.ring.domain.evaluate_terms(self.num, self.den, point)

    def to_json(self):
        enc = self.ring.domain.encode_scalar
        return {
            "n": self.ring.n,
            "terms": [{"exp": list(e), "coeff": enc(c)}
                      for e, c in sorted(self.terms.items())],
        }

    def text(self):
        """Human-readable rendering, one term per '+'."""
        if not self.num:
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

# keeps its own per-term loops: through weyl's tuple helper, 900 reflections
# of a 200-term rank-3 polynomial took 0.062-0.067 s instead of 0.039-0.040 s
def apply_simple_reflection(i, f):
    """Act by the affine simple reflection s_i, 0 <= i <= n.

    s_0 sends x1 to q/x1, s_n inverts x_n, and the middle s_i swap
    adjacent variables.
    """
    ring = f.ring
    n = ring.n
    if i == 0:
        return _times_q_powers(f, {(-e[0],) + e[1:]: (c, e[0])
                                   for e, c in f.num.items()})
    if i == n:
        return LaurentPolynomial(
            ring, {e[:-1] + (-e[-1],): c for e, c in f.num.items()}, f.den)
    if 0 < i < n:
        out = {}
        for e, c in f.num.items():
            ne = list(e)
            ne[i - 1], ne[i] = ne[i], ne[i - 1]
            out[tuple(ne)] = c
        return LaurentPolynomial(ring, out, f.den)
    raise ValueError("reflection index out of range: %r" % (i,))


def apply_translation(i, f, sign=1):
    """The q-shift x_i -> q^sign * x_i (1-indexed i)."""
    if not 1 <= i <= f.ring.n:
        raise ValueError("variable index out of range")
    return _times_q_powers(f, {e: (c, sign * e[i - 1])
                               for e, c in f.num.items()})


def _times_q_powers(f, moved):
    """sum c q^k x^e over moved = {e: (c, k)}, c numerators over f.den.

    With q^k = a_k / b_k, the result stands over f.den * L, L the lcm of
    the b_k, and each c is multiplied by a_k L / b_k; that factor is
    skipped where it is one."""
    ring = f.ring
    parts = {k: ring._q_power(k) for _, k in moved.values()}
    big = lcm(*(d for _, d in parts.values()))
    factor = {k: a if d == big else a * (big // d)
              for k, (a, d) in parts.items() if k or big != 1}
    out = {}
    for e, (c, k) in moved.items():
        m = factor.get(k)
        out[e] = c if m is None else c * m
    return _reduced(ring, out, f.den * big)


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
    if not g.num:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(g.num) > 2:
        raise ValueError("exact_divide takes a divisor of at most two terms, "
                         "not %d" % len(g.num))
    ring = f.ring
    if not f.num:
        return ring.zero()
    if len(g.num) == 2:
        return _divide_binomial(f, g)
    (e, _), = g.num.items()
    # the coefficient as a domain scalar: a Fraction, never an int, whose
    # ** -1 would be a float
    return f * ring.monomial([-x for x in e], g.coefficient(e) ** (-1))


def _divide_binomial(f, g):
    """exact_divide for a two-term g = c_a x^a + c_b x^b, a the graded-lex
    leading exponent.  With w = a - b and z = x^w, g = x^b (c_a z + c_b),
    and multiplying by g maps each line e + k*w of exponents into itself:
    so f is divided line by line (_lines, _divide_lines), as a
    polynomial in z, and the quotient shifted by -b.

    Over the integers, g's numerators are divided by their content
    first, so that the quotient of f's numerators is integral (see the
    module docstring) and each division by c_a is an exact divmod; the
    content and the two denominators are put back at the end.
    """
    ring = f.ring
    (a, ca), (b, cb) = g.num.items()
    if _grlex(a) < _grlex(b):
        a, ca, b, cb = b, cb, a, ca
    if isinstance(ca, int):
        content = gcd(ca, cb)
        ca, cb, one = ca // content, cb // content, 1
        divide = None if ca == 1 else _int_divider(ca)
    else:
        content, one = 1, ring.domain.one
        divide = None if ca == one else (ca ** (-1)).__mul__
    w = tuple(map(sub, a, b))
    lines = _divide_lines(_lines(f.num, w), divide,
                          None if -cb == one else -cb)
    if lines is None:
        raise ExactDivisionError("nonzero remainder in exact division")
    return _reduced(ring, _times(_line_terms(lines, w, b), g.den),
                    f.den * content)


def _lines(num, w):
    """The term dict num split into its lines along w: {p: {k: c}} with c
    the coefficient at p + k*w, p the line's one point whose j-th
    exponent lies in the half-open range from 0 toward w_j, j the first
    index with w_j nonzero.  Each offset k*w is computed once per k."""
    j = next(k for k, x in enumerate(w) if x)
    wj = w[j]
    lines, steps = {}, {}
    get = lines.get
    for e, c in num.items():
        k = e[j] // wj
        if k:
            kw = steps.get(k)
            if kw is None:
                kw = steps[k] = tuple(k * y for y in w)
            e = tuple(map(sub, e, kw))
        line = get(e)
        if line is None:
            lines[e] = {k: c}
        else:
            line[k] = c
    return lines


def _line_terms(lines, w, low=None):
    """The term dict of lines along w, as _lines gives them, times
    x^-low when low is given."""
    out, steps = {}, {}
    for p, line in lines.items():
        if low is not None:
            p = tuple(map(sub, p, low))
        for k, c in line.items():
            if k:
                kw = steps.get(k)
                if kw is None:
                    kw = steps[k] = tuple(k * y for y in w)
                out[tuple(map(add, p, kw))] = c
            else:
                out[p] = c
    return out


def _divide_lines(lines, divide=None, neg_cb=None):
    """Each line of lines, {p: {k: c}}, read as the polynomial sum c z^k
    in one variable z, divided by c_a z + c_b: the quotients in the same
    form, or None when some line leaves a remainder.  divide(x) is
    x / c_a, and None when c_a is one; neg_cb is -c_b, and None when
    that is one.

    On a line, sum_k f_k z^k = (c_a z + c_b) sum_k h_k z^k says
    f_(k+1) = c_a h_k + c_b h_(k+1).  So from the top position down,
    h_k = (f_(k+1) - c_b h_(k+1)) / c_a: the carry f_(k+1) - c_b h_(k+1)
    is divided by c_a.  At the line's lowest position the carry is what
    is left of f there, f_bottom - c_b h_bottom, which must vanish: it
    is the remainder.  So the quotient is unique, and the line is
    divisible exactly when the remainder is zero.
    """
    out = {}
    for p, line in lines.items():
        top, bottom = max(line), min(line)
        carry = line[top]
        quot = out[p] = {}
        get = line.get
        for k in range(top - 1, bottom - 1, -1):
            if carry:
                h = carry if divide is None else divide(carry)
                quot[k] = h
                carry = h if neg_cb is None else h * neg_cb
            c = get(k)
            if c is not None:
                carry = carry + c if carry else c
        if carry:
            return None
    return out


def _int_divider(ca):
    """x -> x / ca for an int x that ca must divide."""
    def divide(x):
        h, r = divmod(x, ca)
        if r:
            raise ExactDivisionError("nonzero remainder in exact division")
        return h
    return divide


def unit_normalize(f):
    """Split f as unit * canonical: returns (shift, lead_coeff, canon).

    canon is an honest polynomial (componentwise minimum exponent zero)
    with graded-lex leading coefficient one, and
    f == lead_coeff * x^shift * canon.
    """
    if not f.num:
        raise ValueError("cannot unit-normalize the zero polynomial")
    ring = f.ring
    shift = tuple(min(e[i] for e in f.num) for i in range(ring.n))
    shifted = LaurentPolynomial(
        ring, {tuple(a - b for a, b in zip(e, shift)): c
               for e, c in f.num.items()}, f.den)
    lead = shifted.coefficient(max(shifted.num, key=_grlex))
    return shift, lead, shifted.scale(lead ** (-1))
