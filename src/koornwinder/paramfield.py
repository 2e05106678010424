"""Exact arithmetic in the six-parameter coefficient field.

Elements are quotients num/den of integer polynomials in the square roots
of the parameters (q, t, t0, tn, u0, un).  Exponents of the square roots
are stored doubled so that everything stays in plain integer arithmetic:
the stored monomial (1, 0, 0, 0, 0, 0) is q**(1/2) and (2, 0, 0, 0, 0, 0)
is q itself.  num and den are elements of one sparse polynomial ring
ZZ[r0..r5] (sympy's PolyRing, lex order), where r_i stands for the square
root of the i-th parameter; they are dictionaries from exponent tuples to
nonzero integers.

Canonical form: no zero coefficients, the integer content and the common
monomial factor of num and den removed, and the lexicographically leading
denominator coefficient positive.  A full multivariate gcd is attempted
only past a size threshold; equality is decided by cross multiplication
and never depends on gcd reduction.

sympy is imported on first use, by _load(): when the first FieldElement
is built, or when one of the constants ZERO, ONE, SQRT_Q .. SQRT_UN is
first read through the module __getattr__.  Specialized mode computes
in Fractions and never builds an element, so it never pays for that
import.  The module itself is still imported by the package: it defines
the public constants and exception, and tracing tools find FieldElement
and _full_reduce in it through sys.modules.

LaurentScalar is the subring Z[r^+-1] of Laurent polynomials in the
square roots, with its own dict arithmetic and no sympy: symbolic chain
states are built over it, and only normalization needs the field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index, sub

PARAM_NAMES = ("q", "t", "t0", "tn", "u0", "un")

#: past this many stored terms (in num or den) a full gcd reduction runs
GCD_TERM_THRESHOLD = 64

_N = 6
_ZERO_EXP = (0,) * _N

# Set by _load(), together with the public constants of _CONSTANTS; ring
# elements are shared between field elements and never mutated.
_RING = _ONE = PolyElement = HeuristicGCDFailed = None


class UnluckySpecializationError(ArithmeticError):
    """A denominator vanished at the chosen parameter assignment."""


# Exponent rewrites for the involutions.  epsilon inverts q, t, tn, u0 and
# trades t0 for un^{-1} (and vice versa); dagger inverts all six; star is
# the composite and just swaps t0 with un.
def _eps_exp(e):
    return (-e[0], -e[1], -e[5], -e[3], -e[4], -e[2])


def _dagger_exp(e):
    return (-e[0], -e[1], -e[2], -e[3], -e[4], -e[5])


def _star_exp(e):
    return (e[0], e[1], e[5], e[3], e[4], e[2])


def _map_exponents(p, fn):
    return {fn(e): c for e, c in p.items()}


# ---------------------------------------------------------------------------
# normalization

def _strip_monomial(num, den):
    """Divide num and den by their common monomial factor.

    This is the one way into the ring: the inputs may be exponent
    dictionaries with negative entries (but no zero coefficients); the
    outputs are ring elements whose exponents are nonnegative, with
    minimum zero in every variable.
    """
    shift = tuple(map(min, zip(*num, *den)))
    if not any(shift) and isinstance(num, PolyElement) \
            and isinstance(den, PolyElement):
        return num, den

    def shifted(p):
        return _RING.dtype([(tuple(map(sub, e, shift)), c)
                            for e, c in p.items()])

    return shifted(num), shifted(den)


def _strip_content(num, den):
    g = num.content()
    if g != 1:
        g = math.gcd(g, den.content())
    if g == 1:
        return num, den
    return num.quo_ground(g), den.quo_ground(g)


def _full_reduce(num, den):
    """Divide out the multivariate gcd of num and den."""
    try:
        _, num, den = num.cofactors(den)
    except HeuristicGCDFailed:
        _, num, den = _RING.dmp_inner_gcd(num, den)
    return num, den


def _normalize(num, den, reduce=False):
    """Canonical form of num/den, given without zero coefficients.

    The full gcd reduction runs when reduce is set, or when either side
    has more than GCD_TERM_THRESHOLD terms and neither has just one: once
    the common monomial and content are stripped, a one-term side has
    only unit divisors in common with the other.
    """
    if not den:
        raise ZeroDivisionError("field element with zero denominator")
    if not num:
        return _RING.zero, _ONE
    num, den = _strip_monomial(num, den)
    num, den = _strip_content(num, den)
    if reduce or (max(len(num), len(den)) > GCD_TERM_THRESHOLD
                  and min(len(num), len(den)) > 1):
        num, den = _full_reduce(num, den)
    if den.LC < 0:
        num, den = -num, -den
    if len(num) == len(den):
        if num == den:
            return _ONE, _ONE
        if num == -den:
            return -_ONE, _ONE
    return num, den


def _element(num, den, reduce=False):
    """A field element from ring elements, skipping the zero-coefficient
    filter of the public constructor."""
    out = object.__new__(FieldElement)
    out.num, out.den = _normalize(num, den, reduce)
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


# ---------------------------------------------------------------------------

class FieldElement:
    """Immutable exact rational function in the six square roots.

    Equality is decided by cross multiplication, so two structurally
    different representations of the same value compare equal.  Instances
    are deliberately unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        """num/den from exponent dictionaries or ring elements; exponents
        may be negative and coefficients zero."""
        if _RING is None:
            _load()
        if den is None:
            den = {_ZERO_EXP: 1}
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
        e = tuple(map(index, exponents))
        if len(e) != _N:
            raise ValueError("expected 6 doubled exponents")
        return cls({e: index(coeff)})

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

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return _element(self.num + other.num, self.den)
        return _element(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(FieldElement)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # cheap cross cancellation of identical dictionaries
        if n1 == d2:
            n1 = d2 = _ONE
        if n2 == d1:
            n2 = d1 = _ONE
        return _element(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero field element")
        return _element(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k):
        k = index(k)
        return _power(self if k >= 0 else self.inverse(), abs(k), ONE)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # cross multiplication; no reliance on canonical gcd reduction
        return self.num * other.den == other.num * self.den

    def __bool__(self):
        return bool(self.num)

    # -- involutions ----------------------------------------------------

    def epsilon(self):
        """Invert q, t, tn, u0; send t0 to 1/un and un to 1/t0."""
        return FieldElement(_map_exponents(self.num, _eps_exp),
                            _map_exponents(self.den, _eps_exp))

    def dagger(self):
        """Invert all six parameters (and their square roots)."""
        return FieldElement(_map_exponents(self.num, _dagger_exp),
                            _map_exponents(self.den, _dagger_exp))

    def star(self):
        """Swap t0 and un; the composite of epsilon and dagger."""
        return FieldElement(_map_exponents(self.num, _star_exp),
                            _map_exponents(self.den, _star_exp))

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
        dv = _eval_poly(self.den, vals)
        if dv == 0:
            raise UnluckySpecializationError(
                "denominator vanishes at this assignment")
        return _eval_poly(self.num, vals) / dv

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
        if self.den == 1 and self.num.is_ground:
            return int(self.num.const())
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
        if self.den == 1:
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
    one way into FieldElement.  No sympy: plain dict arithmetic.
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
        e = tuple(map(index, exponents))
        if len(e) != _N:
            raise ValueError("expected 6 doubled exponents")
        coeff = index(coeff)
        return cls({e: coeff} if coeff else {})

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentScalar):
            return x
        if isinstance(x, int):
            return LaurentScalar.from_int(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        return _merged(dict(a), b)

    __radd__ = __add__

    def __neg__(self):
        return LaurentScalar({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, {e: -c for e, c in other.terms.items()}
        return _merged(b, a) if len(b) >= len(a) else _merged(dict(a), b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial: a shift plus a scale, and no two products meet
            (e, c), = a.items()
            if e == _ZERO_EXP:
                return LaurentScalar({e2: c * c2 for e2, c2 in b.items()})
            a0, a1, a2, a3, a4, a5 = e
            return LaurentScalar({
                (x0 + a0, x1 + a1, x2 + a2, x3 + a3, x4 + a4, x5 + a5): c * c2
                for (x0, x1, x2, x3, x4, x5), c2 in b.items()})
        out = {}
        get = out.get
        for (a0, a1, a2, a3, a4, a5), c1 in a.items():
            for (x0, x1, x2, x3, x4, x5), c2 in b.items():
                e = (x0 + a0, x1 + a1, x2 + a2, x3 + a3, x4 + a4, x5 + a5)
                out[e] = get(e, 0) + c1 * c2
        return LaurentScalar({e: c for e, c in out.items() if c})

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

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other ** (-1)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def to_field(self):
        """The same element as a FieldElement."""
        return FieldElement(self.terms)

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


def _merged(out, terms):
    """out, a dictionary the caller owns, plus terms, as a LaurentScalar."""
    get = out.get
    for e, c in terms.items():
        s = get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return LaurentScalar(out)


def _eval_poly(p, vals):
    total = Fraction(0)
    for e, c in p.items():
        v = Fraction(c)
        for base, k in zip(vals, e):
            if k:
                v *= base ** k
        total += v
    return total


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


def _sqrt_exp(index):
    e = [0] * _N
    e[index] = 1
    return tuple(e)


_CONSTANTS = ("ZERO", "ONE") + tuple("SQRT_" + name.upper()
                                     for name in PARAM_NAMES)


def _load():
    """Import sympy, then build the ring and the constants of _CONSTANTS.

    Runs once: FieldElement.__init__ calls it before the first element
    and module __getattr__ before the first constant is read.  Everything
    else that touches the ring starts from an existing element.
    """
    global _RING, _ONE, PolyElement, HeuristicGCDFailed
    from sympy import ZZ
    from sympy.polys.orderings import lex
    from sympy.polys.polyerrors import HeuristicGCDFailed
    from sympy.polys.rings import PolyElement, PolyRing
    ring = PolyRing("r0:6", ZZ, lex)
    _ONE = ring.one
    _RING = ring  # set last: __init__ tests it, and the constants need _ONE
    globals().update(zip(_CONSTANTS, [
        FieldElement.from_int(0), FieldElement.from_int(1),
        *(FieldElement.monomial(_sqrt_exp(i)) for i in range(_N))]))


def __getattr__(name):
    """ZERO, ONE and SQRT_Q .. SQRT_UN, built on first access (PEP 562)."""
    if name in _CONSTANTS:
        _load()
        return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
