"""Property tests for the coefficient field: ring axioms, the three
involutions and specialization as ring homomorphisms, the canonical
form as a fixed point of the constructor, the Laurent scalars of the
raw chain states against the field, and specialize against an evaluation
in Fractions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from koornwinder import paramfield as pf
from koornwinder.domains import SymbolicDomain
from koornwinder.paramfield import (FieldElement, LaurentScalar,
                                    UnluckySpecializationError)

from conftest import random_field_element

# deterministic examples, so that the suite passes or fails the same way
# on every run
field_settings = settings(derandomize=True, deadline=None, max_examples=60)

exponents = st.tuples(*[st.integers(-2, 2)] * 6)
coefficients = st.integers(-3, 3)


@st.composite
def elements(draw):
    """A field element with small support; zero coefficients and negative
    doubled exponents are allowed on the way in."""
    num = draw(st.dictionaries(exponents, coefficients, max_size=3))
    den = draw(st.dictionaries(exponents, coefficients, min_size=1,
                               max_size=2))
    assume(any(den.values()))
    return FieldElement(num, den)


nonzero_elements = elements().filter(bool)
involutions = st.sampled_from(
    [FieldElement.epsilon, FieldElement.dagger, FieldElement.star])
sqrt_values = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    min_size=6, max_size=6)


@field_settings
@given(elements(), elements(), elements())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + pf.ZERO == x and x * pf.ONE == x
    assert x - x == pf.ZERO and x + (-x) == 0


@field_settings
@given(nonzero_elements, elements())
def test_inverses(x, y):
    assert x * x.inverse() == pf.ONE
    assert (y / x) * x == y
    assert x.inverse().inverse() == x


@field_settings
@given(involutions, elements(), elements())
def test_involutions_are_ring_homomorphisms_of_order_two(f, x, y):
    assert f(f(x)) == x
    assert f(x + y) == f(x) + f(y)
    assert f(x * y) == f(x) * f(y)
    assert f(pf.ONE) == pf.ONE


@field_settings
@given(sqrt_values, elements(), elements())
def test_specialize_is_a_ring_homomorphism(vals, x, y):
    try:
        sx, sy = x.specialize(vals), y.specialize(vals)
    except UnluckySpecializationError:
        assume(False)
    assert (x + y).specialize(vals) == sx + sy
    assert (x * y).specialize(vals) == sx * sy
    assert (-x).specialize(vals) == -sx
    assert pf.ONE.specialize(vals) == Fraction(1)


@field_settings
@given(elements())
def test_constructor_reproduces_canonical_form(x):
    y = FieldElement(x.num, x.den)
    assert y.num == x.num and y.den == x.den
    # the form that perfbench/reference.py's specialize_num_den reads
    assert type(x.num) is dict and type(x.den) is dict
    assert all(x.num.values()) and all(x.den.values())
    assert all(min(column) == 0 for column in zip(*x.num, *x.den))
    assert math.gcd(*x.num.values(), *x.den.values()) == 1
    assert x.den[max(x.den)] > 0


@st.composite
def laurent_scalars(draw):
    """A Laurent scalar: a field element whose denominator is a monomial."""
    terms = draw(st.dictionaries(exponents, coefficients, max_size=4))
    return LaurentScalar({e: c for e, c in terms.items() if c})


units = st.builds(LaurentScalar.monomial, exponents, st.sampled_from((1, -1)))


@field_settings
@given(laurent_scalars(), laurent_scalars(), st.integers(-3, 3),
       st.integers(0, 3))
def test_laurent_scalars_agree_with_the_field(x, y, k, power):
    fx, fy = x.to_field(), y.to_field()
    assert (x + y).to_field() == fx + fy
    assert (x - y).to_field() == fx - fy
    assert (x * y).to_field() == fx * fy
    assert (-x).to_field() == -fx
    assert (x + k).to_field() == fx + k and (k - x).to_field() == k - fx
    assert (x * k).to_field() == fx * k
    assert (x ** power).to_field() == fx ** power
    assert (x == y) == (fx == fy)
    assert bool(x) == bool(fx)


@field_settings
@given(elements(), nonzero_elements, laurent_scalars(), laurent_scalars())
def test_arithmetic_never_mutates_its_operands(x, y, r, s):
    # results may share their operands' term dictionaries
    operands = (x.num, x.den, y.num, y.den, r.terms, s.terms,
                pf.ONE.num, pf.ONE.den)
    before = [dict(terms) for terms in operands]
    domain = SymbolicDomain()
    results = [x + y, x - y, x * y, x / y, -x, 1 - x, x * 1, x ** 2,
               y ** -1, x.canonical(), x.epsilon(), x == y,
               domain.product_equals(x, y, x * y),
               domain.cleared({(0,): x, (1,): y}),
               r + s, r - s, r * s, -r, 1 - r, r * 1, r ** 2, r.to_field()]
    assert results and [dict(terms) for terms in operands] == before


@field_settings
@given(units, laurent_scalars(), st.integers(-3, 3))
def test_laurent_units_invert_as_in_the_field(u, x, k):
    assert (u ** k).to_field() == u.to_field() ** k
    assert (x / u).to_field() == x.to_field() / u.to_field()


# -- specialize against an evaluation written out in Fractions ------------------

def fraction_value(terms, vals):
    """sum_e c_e prod_i vals_i ** e_i, one Fraction operation at a time."""
    total = Fraction(0)
    for e, c in terms.items():
        v = Fraction(c)
        for base, k in zip(vals, e):
            v *= Fraction(base) ** k
        total += v
    return total


@field_settings
@example(random.Random(0), [Fraction(-1, 2), 3, Fraction(5, 3), 7, 11, -13])
@given(st.randoms(use_true_random=False), sqrt_values)
def test_specialize_matches_fraction_evaluation(rng, vals):
    x = random_field_element(rng)
    den = fraction_value(x.den, vals)
    if den == 0:
        with pytest.raises(UnluckySpecializationError):
            x.specialize(vals)
    else:
        assert x.specialize(vals) == fraction_value(x.num, vals) / den


@field_settings
@given(st.randoms(use_true_random=False), sqrt_values)
def test_specialize_refuses_a_vanishing_denominator(rng, vals):
    x = random_field_element(rng)
    # x over q^(1/2) - t^(1/2), which vanishes where q^(1/2) = t^(1/2)
    bad = FieldElement(x.num, pf._mul(x.den, (pf.SQRT_Q - pf.SQRT_T).num))
    vals[1] = vals[0]
    assert fraction_value(bad.den, vals) == 0
    with pytest.raises(UnluckySpecializationError):
        bad.specialize(vals)
