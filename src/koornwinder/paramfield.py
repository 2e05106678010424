"""Exact arithmetic in the six-parameter coefficient field.

Elements are quotients num/den of integer polynomials in the square roots
of the parameters (q, t, t0, tn, u0, un).  Exponents of the square roots
are stored doubled so that everything stays in plain integer arithmetic:
the stored monomial (1, 0, 0, 0, 0, 0) is q**(1/2) and (2, 0, 0, 0, 0, 0)
is q itself.  num and den are plain dictionaries from exponent tuples to
nonzero ints, and one set of private kernels (_merged, _add, _sub, _neg,
_mul) does the sparse arithmetic of both FieldElement and LaurentScalar.
laurent's sums, differences and products go through the same _merged,
_add, _sub and _neg, with coefficients that may also be FieldElements or
LaurentScalars, so _merged never adds a coefficient to the int 0.  The
kernels never mutate their operands and may return one of them, so term
dictionaries are shared between elements and never mutated.  One
evaluator, _evaluate, sums a dictionary of coefficients at a point and
returns a (numerator, denominator) pair, in a ring whose + and * take no
gcd: the ints or the LaurentScalars.  Its power tables hold one entry
per exponent that occurs, so its time and memory follow the terms, not
the exponents' range.  specialize calls it, and so do both domains'
evaluate_terms and NoumiRepresentation.d_eigen_holds.

Canonical form: no zero coefficients, the integer content and the common
monomial factor of num and den removed (every exponent nonnegative, with
minimum zero in each variable), and the denominator coefficient at the
lexicographically largest exponent positive.  A full multivariate gcd is
attempted only past a size threshold; equality is decided by cross
multiplication and never depends on gcd reduction.

Only the gcd and the lcm need a computer-algebra library.  _load
imports it on the first call of _full_reduce, the gcd reduction, or on
the first call of _over_lcm, which puts field elements over the lcm of
their denominators for SymbolicDomain.cleared, with denominators that
differ; each converts its inputs to the library's sparse ring and its
result back to term dictionaries.  The constants ZERO, ONE and
SQRT_Q .. SQRT_UN are built on import, so specialized mode, `specialize`
and symbolic work whose coefficients stay below GCD_TERM_THRESHOLD and
share one denominator never pay for that import.

LaurentScalar is the subring Z[r^+-1] of Laurent polynomials in the
square roots: symbolic chain states are built over it, and only
normalization needs the field.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import getitem, index, sub

PARAM_NAMES = ("q", "t", "t0", "tn", "u0", "un")

#: past this many stored terms (in num or den) a full gcd reduction runs
GCD_TERM_THRESHOLD = 64

_N = 6
_ZERO_EXP = (0,) * _N
_ONE = {_ZERO_EXP: 1}


class UnluckySpecializationError(ArithmeticError):
    """A denominator vanished at the chosen parameter assignment."""


# ---------------------------------------------------------------------------
# the term-dictionary kernels

def _merged(out, terms, sign=1):
    """out, a dictionary the caller owns, plus terms, or minus terms when
    sign is -1.  A key missing from out takes c or -c as it is, so no
    coefficient is ever added to the int 0: the coefficients may be ints,
    FieldElements or LaurentScalars."""
    get = out.get
    for e, c in terms.items():
        s = get(e)
        if s is None:
            out[e] = c if sign > 0 else -c
            continue
        s = s + c if sign > 0 else s - c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _merged(dict(a), b)


def _neg(a):
    return {e: -c for e, c in a.items()}


def _sub(a, b):
    return _merged(dict(a), b, -1)


def _mul(a, b):
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # a monomial: a shift plus a scale, and no two products meet
        (e, c), = a.items()
        if e == _ZERO_EXP:
            return b if c == 1 else {e2: c * c2 for e2, c2 in b.items()}
        a0, a1, a2, a3, a4, a5 = e
        return {(x0 + a0, x1 + a1, x2 + a2, x3 + a3, x4 + a4, x5 + a5): c * c2
                for (x0, x1, x2, x3, x4, x5), c2 in b.items()}
    out = {}
    get = out.get
    for (a0, a1, a2, a3, a4, a5), c1 in a.items():
        for (x0, x1, x2, x3, x4, x5), c2 in b.items():
            e = (x0 + a0, x1 + a1, x2 + a2, x3 + a3, x4 + a4, x5 + a5)
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _monomial(exponents, coeff):
    """The terms of coeff times the monomial with the given doubled
    exponents of (q, t, t0, tn, u0, un)."""
    e = tuple(map(index, exponents))
    if len(e) != _N:
        raise ValueError("expected 6 doubled exponents")
    coeff = index(coeff)
    return {e: coeff} if coeff else {}


# ---------------------------------------------------------------------------
# normalization

def _strip_monomial(num, den):
    """Divide num and den by their common monomial factor.

    The inputs may have negative exponents (but no zero coefficients);
    in the outputs every exponent is nonnegative, with minimum zero in
    every variable.  Inputs already in that form are returned as given.
    """
    shift = tuple(map(min, zip(*num, *den)))
    if not any(shift):
        return num, den

    def shifted(p):
        return {tuple(map(sub, e, shift)): c for e, c in p.items()}

    return shifted(num), shifted(den)


def _strip_content(num, den):
    g = math.gcd(*num.values())
    if g != 1:
        g = math.gcd(g, *den.values())
    if g == 1:
        return num, den
    return ({e: c // g for e, c in num.items()},
            {e: c // g for e, c in den.items()})


@functools.cache
def _load():
    """sympy's sparse ring ZZ[r0..r5] in lex order, where r_i stands for
    the square root of the i-th parameter, and the exception its
    heuristic gcd raises.  sympy is imported on the first call."""
    from sympy import ZZ
    from sympy.polys.orderings import lex
    from sympy.polys.polyerrors import HeuristicGCDFailed
    from sympy.polys.rings import PolyRing
    return PolyRing("r0:6", ZZ, lex), HeuristicGCDFailed


def _from_ring(p):
    """A polynomial of the ring of _load as a term dictionary; its
    coefficients may be another integer type than int."""
    return {e: int(c) for e, c in p.items()}


def _full_reduce(num, den):
    """Divide out the multivariate gcd of num and den, in sympy's ring."""
    ring, heuristic_failed = _load()
    num, den = ring.from_dict(num), ring.from_dict(den)
    try:
        _, num, den = num.cofactors(den)
    except heuristic_failed:
        _, num, den = ring.dmp_inner_gcd(num, den)
    return _from_ring(num), _from_ring(den)


def _over_lcm(elements):
    """([x.num (L / x.den) for x in elements], L) for a list of field
    elements, L the lcm of their denominators: every element over L,
    with its numerator found by exact quotient.  When the denominators
    are all equal, L is that one and sympy is not loaded; otherwise the
    lcm and the quotients are sympy's, in the ring of _load."""
    dens = [x.den for x in elements] or [_ONE]
    if dens.count(dens[0]) == len(dens):
        return [x.num for x in elements], dens[0]
    ring, _ = _load()
    dens = [ring.from_dict(d) for d in dens]
    big = functools.reduce(lambda a, b: a.lcm(b), dens)
    return ([_mul(x.num, _from_ring(big.exquo(d)))
             for x, d in zip(elements, dens)], _from_ring(big))


def _normalize(num, den, reduce=False, cofactors=None):
    """Canonical form of num/den, given without zero coefficients.

    The full gcd reduction runs when reduce is set, or when either side
    has more than GCD_TERM_THRESHOLD terms and neither has just one: once
    the common monomial and content are stripped, a one-term side has
    only unit divisors in common with the other.  It is
    cofactors(num, den), _full_reduce unless given: num and den divided
    by their gcd.  A caller that knows the factors of den may pass its
    own, which must return coprime polynomials with no common monomial
    or content.
    """
    if not den:
        raise ZeroDivisionError("field element with zero denominator")
    if not num:
        return {}, _ONE
    num, den = _strip_monomial(num, den)
    num, den = _strip_content(num, den)
    if reduce or (max(len(num), len(den)) > GCD_TERM_THRESHOLD
                  and min(len(num), len(den)) > 1):
        num, den = (cofactors or _full_reduce)(num, den)
    if den[max(den)] < 0:
        num, den = _neg(num), _neg(den)
    if len(num) == len(den):
        if num == den:
            return _ONE, _ONE
        if num == _neg(den):
            return {_ZERO_EXP: -1}, _ONE
    return num, den


def _element(num, den, reduce=False, cofactors=None):
    """A field element from term dictionaries without zero coefficients,
    skipping the filter of the public constructor."""
    out = object.__new__(FieldElement)
    out.num, out.den = _normalize(num, den, reduce, cofactors)
    return out


def _terms_from_json(pairs):
    """The exponent dictionary of one side of FieldElement.to_json_obj."""
    if not isinstance(pairs, list):
        raise ValueError("field element num and den must be lists")
    out = {}
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2
                and type(pair[0]) in (int, str)
                and isinstance(pair[1], list) and len(pair[1]) == _N
                and all(type(x) is int for x in pair[1])):
            raise ValueError("field element term must be [integer, six int "
                             "exponents], got %r" % (pair,))
        e = tuple(pair[1])
        if e in out:
            raise ValueError("repeated exponent in field element JSON")
        out[e] = int(pair[0])
    return out


def _binary(op):
    """The binary operator op(self, other), with other of another type
    first coerced by self._coerce; NotImplemented when it cannot be."""
    @functools.wraps(op)
    def method(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return op(self, other)
    return method


# ---------------------------------------------------------------------------

class FieldElement:
    """Immutable exact rational function in the six square roots.

    Equality is decided by cross multiplication, so two structurally
    different representations of the same value compare equal.  Instances
    are deliberately unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        """num/den from exponent dictionaries; exponents may be negative
        and coefficients zero."""
        self.num, self.den = _normalize({e: c for e, c in num.items() if c},
                                        {e: c for e, c in den.items() if c})

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, k):
        return cls({_ZERO_EXP: index(k)})

    @classmethod
    def from_fraction(cls, f):
        f = Fraction(f)
        return cls({_ZERO_EXP: f.numerator}, {_ZERO_EXP: f.denominator})

    @classmethod
    def monomial(cls, exponents, coeff=1):
        """Monomial with the given doubled exponents of (q, t, t0, tn, u0, un)."""
        return cls(_monomial(exponents, coeff))

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, FieldElement):
            return x
        if isinstance(x, int):
            return FieldElement.from_int(x)
        if isinstance(x, Fraction):
            return FieldElement.from_fraction(x)
        return None

    @_binary
    def __add__(self, other):
        if self.den == other.den:
            return _element(_add(self.num, other.num), self.den)
        return _element(_add(_mul(self.num, other.den),
                             _mul(other.num, self.den)),
                        _mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(FieldElement)
        out.num, out.den = _neg(self.num), self.den
        return out

    @_binary
    def __sub__(self, other):
        return self + (-other)

    @_binary
    def __rsub__(self, other):
        return other + (-self)

    @_binary
    def __mul__(self, other):
        return self.times(other)

    def times(self, other, cofactors=None):
        """self * other for a FieldElement other, normalized by
        _normalize with the given cofactors."""
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # cheap cross cancellation of identical dictionaries
        if n1 == d2:
            n1 = d2 = _ONE
        if n2 == d1:
            n2 = d1 = _ONE
        return _element(_mul(n1, n2), _mul(d1, d2), cofactors=cofactors)

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero field element")
        return _element(self.den, self.num)

    @_binary
    def __truediv__(self, other):
        return self * other.inverse()

    @_binary
    def __rtruediv__(self, other):
        return other * self.inverse()

    def __pow__(self, k):
        k = index(k)
        return _power(self if k >= 0 else self.inverse(), abs(k), ONE)

    @_binary
    def __eq__(self, other):
        # cross multiplication; no reliance on canonical gcd reduction
        return _mul(self.num, other.den) == _mul(other.num, self.den)

    def __bool__(self):
        return bool(self.num)

    # -- involutions ----------------------------------------------------

    def _mapped(self, exponent_map):
        return FieldElement({exponent_map(e): c for e, c in self.num.items()},
                            {exponent_map(e): c for e, c in self.den.items()})

    def epsilon(self):
        """Invert q, t, tn, u0; send t0 to 1/un and un to 1/t0."""
        return self._mapped(lambda e: (-e[0], -e[1], -e[5], -e[3], -e[4], -e[2]))

    def dagger(self):
        """Invert all six parameters (and their square roots)."""
        return self._mapped(lambda e: (-e[0], -e[1], -e[2], -e[3], -e[4], -e[5]))

    def star(self):
        """Swap t0 and un; the composite of epsilon and dagger."""
        return self._mapped(lambda e: (e[0], e[1], e[5], e[3], e[4], e[2]))

    # -- specialization -------------------------------------------------

    def specialize(self, sqrt_values):
        """Evaluate at rational values of the six square roots.

        Raises UnluckySpecializationError when the denominator vanishes,
        so the caller can re-draw the assignment.
        """
        vals = [Fraction(v) for v in sqrt_values]
        if len(vals) != _N:
            raise ValueError("expected 6 square-root values")
        if any(v == 0 for v in vals):
            raise ValueError("square-root values must be nonzero")
        point = [(v.numerator, v.denominator) for v in vals]
        dn, dd = _evaluate(self.den, 1, point)
        if dn == 0:
            raise UnluckySpecializationError(
                "denominator vanishes at this assignment")
        nn, nd = _evaluate(self.num, 1, point)
        return Fraction(nn * dd, nd * dn)

    # -- canonicalization / serialization --------------------------------

    def canonical(self):
        """Force the full gcd reduction regardless of size."""
        return _element(self.num, self.den, reduce=True)

    def to_json_obj(self):
        return {
            "num": [[str(c), list(e)] for e, c in sorted(self.num.items())],
            "den": [[str(c), list(e)] for e, c in sorted(self.den.items())],
        }

    def to_json_value(self):
        """Compact form: a bare int when the element is an integer."""
        if self.den == _ONE and self.num.keys() <= {_ZERO_EXP}:
            return self.num.get(_ZERO_EXP, 0)
        return self.to_json_obj()

    @classmethod
    def from_json_value(cls, obj):
        """Inverse of to_json_value.  The input is untrusted: anything but
        an int, or an object whose num and den are lists of
        [integer, six int exponents] pairs, raises ValueError."""
        if type(obj) is int:
            return cls.from_int(obj)
        if not isinstance(obj, dict):
            raise ValueError("field element JSON must be an int or an object")
        num = _terms_from_json(obj.get("num"))
        den = _terms_from_json(obj.get("den"))
        if not any(den.values()):
            raise ValueError("field element JSON has a zero denominator")
        return cls(num, den)

    def __repr__(self):
        if self.den == _ONE:
            return _poly_str(self.num)
        return "(%s)/(%s)" % (_poly_str(self.num), _poly_str(self.den))


class LaurentScalar:
    """Immutable Laurent polynomial in the six square roots: an element of
    Z[r^+-1], the ring that symbolic chain states are built in.

    terms maps doubled exponent tuples (negative entries allowed) to
    nonzero ints.  A Laurent polynomial has one representation, so
    equality is dict equality and no canonical form is ever computed.
    The units of the ring are the monomials with coefficient +-1; they
    are the only elements with an inverse, and inverting anything else
    raises ArithmeticError rather than leave the ring.  to_field is the
    one way into FieldElement.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        """terms without zero coefficients; taken over, not copied."""
        self.terms = terms

    @classmethod
    def from_int(cls, k):
        k = index(k)
        return cls({_ZERO_EXP: k} if k else {})

    @classmethod
    def monomial(cls, exponents, coeff=1):
        """Monomial with the given doubled exponents of (q, t, t0, tn, u0, un)."""
        return cls(_monomial(exponents, coeff))

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentScalar):
            return x
        if isinstance(x, int):
            return LaurentScalar.from_int(x)
        return None

    @_binary
    def __add__(self, other):
        return LaurentScalar(_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return LaurentScalar(_neg(self.terms))

    @_binary
    def __sub__(self, other):
        return LaurentScalar(_sub(self.terms, other.terms))

    @_binary
    def __rsub__(self, other):
        return other - self

    @_binary
    def __mul__(self, other):
        return LaurentScalar(_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        k = index(k)
        terms = self.terms
        if k < 0 and not (len(terms) == 1
                          and next(iter(terms.values())) in (1, -1)):
            raise ArithmeticError("%r is not a unit of the Laurent ring"
                                  % (self,))
        if len(terms) == 1:
            (e, c), = terms.items()
            return LaurentScalar({tuple(x * k for x in e): c ** abs(k)})
        return _power(self, k, LaurentScalar.from_int(1))

    @_binary
    def __truediv__(self, other):
        return self * other ** (-1)

    @_binary
    def __eq__(self, other):
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def to_field(self):
        """The same element as a FieldElement."""
        return _element(self.terms, _ONE)

    def __repr__(self):
        return _poly_str(self.terms)


def _power(base, k, one):
    """base ** k for an int k >= 0 by repeated squaring, from the low bit
    of k up; base is squared only while a higher bit is left, so no
    product is thrown away, and k = 1 returns base itself."""
    if not k:
        return one
    out = None
    while True:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if not k:
            return out
        base = base * base


def _evaluate(num, den, point):
    """(S, D) with S / D = sum_e c_e x^e / den, for numerators {e: c_e}
    and a nonzero den in one ring, the ints or the LaurentScalars, at a
    point given as pairs (a_i, b_i) of nonzero elements of that ring,
    x_i = a_i / b_i.  Only + and * of the ring run, never a division,
    so no gcd is taken; a caller that needs a scalar makes one Fraction
    or one field element of S / D.

    Let l_i, h_i be the least and largest exponent of x_i over the
    terms.  Then x_i^e_i = a_i^(e_i - l_i) b_i^(h_i - e_i) a_i^l_i / b_i^h_i,
    where both exponents of the first factor lie in 0..h_i - l_i.  So
        sum_e c_e x^e / den = S / D,
        S = sum_e c_e prod_i a_i^(e_i - l_i) b_i^(h_i - e_i) * prod_i a_i^l_i,
        D = den prod_i b_i^h_i,
    with a negative power of a_i or b_i moved to the other side.  The
    sum is taken from one table per variable, mapping each exponent e
    that occurs in its column to a^(e - l) b^(h - e) by two powers, so
    the cost follows the distinct exponents of each variable, not the
    range between l and h: a sparse 1 + x^k costs two table entries.
    """
    scale = 1
    tables = []
    for (a, b), column in zip(point, zip(*num)):
        low, high = min(column), max(column)
        if low >= 0:
            scale *= a ** low
        else:
            den *= a ** -low
        if high >= 0:
            den *= b ** high
        else:
            scale *= b ** -high
        tables.append({k: a ** (k - low) * b ** (high - k)
                       for k in set(column)})
    total = 0
    for e, c in num.items():
        total += c * math.prod(map(getitem, tables, e))
    return total * scale, den


def _poly_str(p):
    if not p:
        return "0"
    parts = []
    for e, c in sorted(p.items(), reverse=True):
        factors = []
        for name, k in zip(PARAM_NAMES, e):
            if k == 0:
                continue
            if k == 2:
                factors.append(name)
            elif k % 2 == 0:
                factors.append("%s^%d" % (name, k // 2))
            else:
                factors.append("%s^(%d/2)" % (name, k))
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append("%d*%s" % (c, "*".join(factors)))
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


ZERO = FieldElement.from_int(0)
ONE = FieldElement.from_int(1)
SQRT_Q, SQRT_T, SQRT_T0, SQRT_TN, SQRT_U0, SQRT_UN = (
    FieldElement.monomial([int(j == i) for j in range(_N)]) for i in range(_N))
