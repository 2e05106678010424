from fractions import Fraction

import pytest

import koornwinder
from koornwinder import paramfield
from koornwinder.domains import SpecializedDomain, SymbolicDomain
from koornwinder.laurent import LaurentRing
from koornwinder.paramfield import FieldElement

RING = LaurentRing(1, SpecializedDomain())


def test_public_names_resolve():
    for name in koornwinder.__all__:
        assert hasattr(koornwinder, name), name


def test_version():
    assert koornwinder.__version__


def test_quick_workflow():
    family = koornwinder.KoornwinderFamily(1, koornwinder.SpecializedDomain())
    labeled = family.nonsymmetric((1,))
    assert labeled.poly.coefficient((1,)) == 1
    assert family.verify_spectrum(labeled)
    checker = koornwinder.DualityChecker(family)
    assert checker.check_duality_e((1,), (-1,))


@pytest.mark.parametrize("build, at_two", [
    (lambda k: koornwinder.KoornwinderFamily(1, SpecializedDomain())
     .nonsymmetric((k,)).label, lambda: (2,)),
    (lambda k: RING.monomial((k,)), lambda: RING.gen(1) * RING.gen(1)),
    (lambda k: RING.gen(1, k), lambda: RING.gen(1) * RING.gen(1)),
    (lambda k: RING.from_terms({(k,): 1}), lambda: RING.gen(1) * RING.gen(1)),
    (lambda k: RING.gen(1) ** k, lambda: RING.gen(1) * RING.gen(1)),
    (lambda k: FieldElement.from_int(k), lambda: 2),
    (lambda k: FieldElement.monomial((k, 0, 0, 0, 0, 0)),
     lambda: paramfield.SQRT_Q * paramfield.SQRT_Q),
    (lambda k: FieldElement.monomial((0,) * 6, k), lambda: 2),
    (lambda k: paramfield.SQRT_Q ** k,
     lambda: paramfield.SQRT_Q * paramfield.SQRT_Q),
    (lambda k: SpecializedDomain().q_pow(k),
     lambda: SpecializedDomain().q ** 2),
    (lambda k: SymbolicDomain().q_pow(k), lambda: SymbolicDomain().q ** 2),
    (lambda k: SpecializedDomain().from_int(k), lambda: 2),
    (lambda k: SymbolicDomain().raw_domain.from_int(k), lambda: 2),
], ids=["label", "monomial", "gen", "from_terms", "poly_pow", "from_int",
        "field_monomial", "field_coeff", "field_pow", "specialized_q_pow",
        "symbolic_q_pow", "specialized_from_int", "laurent_from_int"])
def test_integer_arguments_are_never_truncated(build, at_two):
    # a fractional label, exponent or power is refused, not rounded to a
    # different integer
    assert build(2) == at_two()
    for bad in (1.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            build(bad)
