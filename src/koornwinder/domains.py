"""Parameter assignments and the coefficient domains.

Everything downstream is generic over a *domain*: an object exposing the
six square roots and a handful of derived combinations, either as exact
symbolic field elements ("symbolic" mode) or as exact rationals under a
fixed assignment ("specialized" mode).  Both kinds of scalar support
+, -, *, /, ** and exact equality, so the operator and polynomial code
never needs to know which mode it runs in.

Each domain also names its raw_domain, the one that chain states are
built in, and from_raw, the conversion from it: a specialized domain is
its own raw domain, and a symbolic one builds its chain states over
LaurentScalarDomain, the Laurent polynomials in the six square roots,
where / and negative powers take only units.

The specialized and symbolic domains evaluate through one evaluator,
paramfield._evaluate, in the ring of their parts hook, whose + and * take
no gcd: ints, or LaurentScalars.  cleared writes a polynomial's
coefficients as numerators in that ring over one denominator (over 1 in
specialized mode, where a polynomial keeps its own int den; over the lcm
of the coefficient denominators in symbolic mode), and evaluate_terms
makes one Fraction or one field element of the evaluator's pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import index

from . import paramfield
from .paramfield import (FieldElement, LaurentScalar, _element, _evaluate,
                         _mul, _over_lcm)

_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _rational(v):
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError("square-root value %r has a zero denominator"
                         % (v,)) from None


@dataclass(frozen=True)
class Assignment:
    """Rational values for the six parameter square roots."""

    q_sqrt: Fraction
    t_sqrt: Fraction
    t0_sqrt: Fraction
    tn_sqrt: Fraction
    u0_sqrt: Fraction
    un_sqrt: Fraction

    @classmethod
    def make(cls, values):
        vals = list(map(_rational, values))
        if len(vals) != 6:
            raise ValueError("expected 6 square-root values")
        if any(v == 0 for v in vals):
            raise ValueError("square-root values must be nonzero")
        return cls(*vals)

    @classmethod
    def default(cls):
        # distinct primes: generic enough that small-degree denominators
        # never vanish, and deterministic for tests
        return cls.make((2, 3, 5, 7, 11, 13))

    @classmethod
    def three_parameter(cls):
        """The degeneration u0 = un = 1, t0 = tn."""
        return cls.make((2, 3, 5, 5, 1, 1))

    @classmethod
    def from_seed(cls, seed):
        rng = random.Random(seed)
        return cls.make(rng.sample(_PRIME_POOL, 6))

    @classmethod
    def parse(cls, text):
        return cls.make(text.split(","))

    def values(self):
        return (self.q_sqrt, self.t_sqrt, self.t0_sqrt,
                self.tn_sqrt, self.u0_sqrt, self.un_sqrt)

    def star(self):
        """Swap the t0 and un values (the duality involution on assignments)."""
        v = self.values()
        return Assignment.make((v[0], v[1], v[5], v[3], v[4], v[2]))

    def as_strings(self):
        return [str(v) for v in self.values()]


class _BaseDomain:
    """Shared derived values; subclasses pass the six square roots."""

    def __init__(self, zero, one, roots):
        """zero, one and the square roots of (q, t, t0, tn, u0, un); every
        other constant is derived from the roots."""
        self.zero, self.one = zero, one
        (self.q_sqrt, self.t_sqrt, self.t0_sqrt, self.tn_sqrt, self.u0_sqrt,
         self.un_sqrt) = qs, ts, t0s, tns, u0s, uns = roots
        self.q = qs * qs
        self.t = ts * ts
        self.t0 = t0s * t0s
        self.tn = tns * tns
        self.u0 = u0s * u0s
        self.un = uns * uns
        # Askey-Wilson parameters and their epsilon transforms
        self.a = tns * uns
        self.b = -(tns / uns)
        self.c = qs * t0s * u0s
        self.d = -(qs * t0s / u0s)
        self.a_eps = (tns * t0s) ** (-1)
        self.b_eps = -(t0s / tns)
        self.c_eps = (qs * uns * u0s) ** (-1)
        self.d_eps = -(u0s / (qs * uns))
        self.s = t0s * tns          # q^{rho_i} = s * t^(n-i)
        self.s_dual = uns * tns     # the t0 <-> un swap of s

    def q_pow(self, k):
        return self.q_sqrt ** (2 * index(k))

    def t_half(self, i, n):
        """Square root of the Hecke parameter attached to generator i."""
        if i == 0:
            return self.t0_sqrt
        if i == n:
            return self.tn_sqrt
        if 0 < i < n:
            return self.t_sqrt
        raise ValueError("generator index out of range: %r" % (i,))

    def split(self, c):
        """A scalar as the (numerator, denominator) pair that a Laurent
        polynomial stores: here (c, 1), so polynomials keep their scalar
        coefficients over denominator 1.  An int, or a Fraction where the
        scalars take one, is converted first; anything else that is not
        a scalar of the domain raises TypeError."""
        x = self.one._coerce(c)
        if x is None:
            raise TypeError("not a scalar of this domain: %r" % (c,))
        return x, 1

    def join(self, c, den):
        """The scalar c / den, for den as split returns it."""
        return c


class LaurentScalarDomain(_BaseDomain):
    """Scalars are Laurent polynomials in the six square roots
    (paramfield.LaurentScalar): the raw domain of SymbolicDomain.

    Every coefficient of T_i in remainder form and every scalar of
    spectral_intertwiner lies in this ring, and the only inverses the
    chain takes are of monomials, so chain states and their Y images
    never need a field.  Inverting a non-unit raises ArithmeticError.
    """

    def __init__(self):
        roots = [LaurentScalar.monomial([int(j == i) for j in range(6)])
                 for i in range(6)]
        super().__init__(LaurentScalar.from_int(0), LaurentScalar.from_int(1),
                         roots)

    def from_int(self, k):
        return LaurentScalar.from_int(k)

    def encode_scalar(self, v):
        """v as the JSON value of the field element it equals."""
        return v.to_field().to_json_value()


class SymbolicDomain(_BaseDomain):
    """Scalars are exact symbolic field elements; chain states are built
    over LaurentScalarDomain."""

    mode = "symbolic"
    assignment = None

    def __init__(self):
        self.raw_domain = LaurentScalarDomain()
        super().__init__(paramfield.ZERO, paramfield.ONE,
                         (paramfield.SQRT_Q, paramfield.SQRT_T,
                          paramfield.SQRT_T0, paramfield.SQRT_TN,
                          paramfield.SQRT_U0, paramfield.SQRT_UN))

    def q_pow(self, k):
        return FieldElement.monomial((2 * index(k), 0, 0, 0, 0, 0))

    def from_int(self, k):
        return FieldElement.from_int(k)

    def from_raw(self, v):
        return v.to_field()

    def parts(self, c):
        """c as a (numerator, denominator) pair of LaurentScalars, Laurent
        polynomials in the six square roots, whose + and * never run a
        gcd (NoumiRepresentation.d_eigen_holds computes with them); an
        int or a Fraction is made a field element first.  The term
        dictionaries are shared, not copied: FieldElement and
        LaurentScalar never mutate one (see paramfield)."""
        c = self.one._coerce(c)
        return LaurentScalar(c.num), LaurentScalar(c.den)

    def cleared(self, num):
        """The coefficients {e: c_e} as numerators in the ring of parts
        over one denominator: ({e: N_e}, L), L the lcm of the
        denominators of the c_e and N_e = c_e L, found by exact quotient
        (paramfield._over_lcm), so no field arithmetic runs."""
        nums, big = _over_lcm(list(num.values()))
        return ({e: LaurentScalar(t) for e, t in zip(num, nums)},
                LaurentScalar(big))

    def evaluate_terms(self, num, den, point):
        """sum_e c_e x^e over the numerators {e: c_e} at a point with
        nonzero coordinates; den is 1 (see split).  The cleared
        numerators are summed in Laurent scalars, and one field element
        is made at the end."""
        total, big = _evaluate(*self.cleared(num), list(map(self.parts, point)))
        return _element(total.terms, big.terms) if total else self.zero

    def product_equals(self, a, b, c):
        """Whether a * b == c, by one cross multiplication of numerators
        and denominators; a product of field elements would run the gcd
        of paramfield._normalize instead.  verify_spectrum passes
        converted Laurent scalars as b and c, whose denominators are
        monomials, so those are multiplied in before the large products."""
        return _mul(a.num, _mul(b.num, c.den)) == _mul(c.num, _mul(a.den, b.den))

    def complexity(self, v):
        return len(v.num) + len(v.den)

    def encode_scalar(self, v):
        return v.to_json_value()

    def decode_scalar(self, obj):
        return FieldElement.from_json_value(obj)


class SpecializedDomain(_BaseDomain):
    """Scalars are exact rationals under a fixed square-root assignment."""

    mode = "specialized"

    def __init__(self, assignment=None):
        self.assignment = assignment or Assignment.default()
        super().__init__(Fraction(0), Fraction(1), self.assignment.values())
        self.raw_domain = self

    def from_int(self, k):
        return Fraction(index(k))

    def from_raw(self, v):
        return v

    def product_equals(self, a, b, c):
        """Whether a * b == c."""
        return a * b == c

    def split(self, c):
        """(numerator, denominator) of a Fraction or an int; anything else
        raises TypeError."""
        if not isinstance(c, (int, Fraction)):
            raise TypeError("not a scalar of this domain: %r" % (c,))
        return c.numerator, c.denominator

    def join(self, c, den):
        return Fraction(c, den)

    #: c as a (numerator, denominator) pair of ints, whose + and * never
    #: run a gcd (NoumiRepresentation.d_eigen_holds computes with them)
    parts = split

    def cleared(self, num):
        """The int numerators {e: c_e} over denominator 1: num itself, in
        the ring of parts (a polynomial keeps its own den apart)."""
        return num, 1

    def evaluate_terms(self, num, den, point):
        """sum_e c_e x^e / den at a point with nonzero coordinates, over
        one common denominator (paramfield._evaluate)."""
        return Fraction(*_evaluate(num, den, list(map(self.parts, point))))

    def star_domain(self):
        return SpecializedDomain(self.assignment.star())

    def encode_scalar(self, v):
        v = Fraction(v)
        return v.numerator if v.denominator == 1 else str(v)

    def decode_scalar(self, obj):
        return Fraction(obj)


def make_domain(mode, assignment=None):
    if mode == "symbolic":
        return SymbolicDomain()
    if mode == "specialized":
        return SpecializedDomain(assignment)
    raise ValueError("unknown mode: %r" % (mode,))
