import json
import random
from fractions import Fraction

import pytest

from koornwinder import paramfield as pf
from koornwinder.domains import Assignment, SymbolicDomain
from koornwinder.laurent import LaurentRing
from koornwinder.paramfield import FieldElement, UnluckySpecializationError

from conftest import peak_mib, random_field_element


ONE = pf.ONE


def test_askey_wilson_products(symbolic):
    d = symbolic
    assert d.a * d.b == -d.tn
    assert d.q_pow(-1) * d.a * d.b * d.c * d.d == d.t0 * d.tn
    assert d.q_pow(-1) * d.a * d.b * d.c * d.d == d.s * d.s


def test_cancellation_and_division():
    x = ONE - pf.SQRT_T * pf.SQRT_T
    assert x / x == ONE
    assert (x * x) / x == x
    with pytest.raises(ZeroDivisionError):
        x / pf.ZERO
    with pytest.raises(ZeroDivisionError):
        pf.ZERO.inverse()


def test_integer_interop():
    q = pf.SQRT_Q ** 2
    assert 1 - q == -(q - 1)
    assert 2 * q == q + q
    assert 1 / q == q ** (-1)
    assert (q - q) == 0


def test_epsilon_on_generators(symbolic):
    d = symbolic
    assert d.t0.epsilon() == d.un ** (-1)
    assert d.q.epsilon() == d.q ** (-1)
    assert d.t.epsilon() == d.t ** (-1)
    assert d.tn.epsilon() == d.tn ** (-1)
    assert d.u0.epsilon() == d.u0 ** (-1)
    assert d.un.epsilon() == d.t0 ** (-1)


def test_epsilon_of_askey_wilson_parameters(symbolic):
    d = symbolic
    assert d.a.epsilon() == (d.tn_sqrt * d.t0_sqrt) ** (-1)
    assert d.a.epsilon() == d.a_eps
    assert d.b.epsilon() == d.b_eps
    assert d.c.epsilon() == d.c_eps
    assert d.d.epsilon() == d.d_eps
    # oracle expansion of the product identity: applying epsilon to
    # q^{-1}abcd = t0*tn gives a'b'c'd'q = (tn*un)^{-1}
    assert d.a_eps * d.b_eps * d.c_eps * d.d_eps * d.q == (d.tn * d.un) ** (-1)


def test_dagger(symbolic):
    d = symbolic
    assert d.q_sqrt.dagger() == d.q_sqrt ** (-1)
    assert ONE.dagger() == ONE
    assert d.s.dagger() == d.s ** (-1)


def test_star(symbolic):
    d = symbolic
    assert d.t0.star() == d.un
    assert d.q.star() == d.q
    assert d.t.star() == d.t
    assert d.tn.star() == d.tn
    assert d.u0.star() == d.u0
    rng = random.Random(1)
    for _ in range(20):
        x = FieldElement.monomial(tuple(rng.randint(-3, 3) for _ in range(6)),
                                  rng.choice((1, 2, -1)))
        assert x.star() == x.epsilon().dagger()
        assert x.star() == x.dagger().epsilon()


def test_involutions_are_ring_homomorphisms_of_order_two():
    rng = random.Random(2)
    elements = [random_field_element(rng) for _ in range(500)]
    for x in elements:
        assert x.epsilon().epsilon() == x
        assert x.dagger().dagger() == x
        assert x.star().star() == x
    for i in range(0, 60, 2):
        x, y = elements[i], elements[i + 1]
        for f in (FieldElement.epsilon, FieldElement.dagger, FieldElement.star):
            assert f(x * y) == f(x) * f(y)
            assert f(x + y) == f(x) + f(y)


def test_specialize_examples(symbolic):
    ones = [1] * 6
    assert symbolic.tn.specialize(ones) == 1
    a = pf.SQRT_TN * pf.SQRT_UN
    assert a.specialize([1, 1, 1, 7, 1, 13]) == 91
    bad = ONE / (ONE - symbolic.q)
    with pytest.raises(UnluckySpecializationError):
        bad.specialize(ones)
    with pytest.raises(ValueError):
        symbolic.q.specialize([0, 1, 1, 1, 1, 1])


# one sparse element, 1 + q^(k/2) or 1 + x^k, evaluated at 2 with
# k = 20000: power tables over every exponent from 0 to k hold k big
# ints and peak above 50 MiB; one entry per exponent that occurs holds two
SPARSE = 20000


def test_specialize_memory_follows_the_terms_not_the_exponent_range():
    x = FieldElement({(0,) * 6: 1, (SPARSE, 0, 0, 0, 0, 0): 1})
    value, peak = peak_mib(
        lambda: x.specialize(Assignment.default().values()))
    assert value == 1 + 2 ** SPARSE
    assert peak < 5


def test_symbolic_evaluate_memory_follows_the_terms():
    f = LaurentRing(1, SymbolicDomain()).from_terms({(0,): 1, (SPARSE,): 1})
    value, peak = peak_mib(lambda: f.evaluate((2,)))
    assert value == FieldElement.from_int(1 + 2 ** SPARSE)
    assert peak < 5


def test_specialize_is_a_homomorphism():
    rng = random.Random(3)
    vals = [Fraction(2), Fraction(3), Fraction(5), Fraction(7),
            Fraction(11), Fraction(13)]
    for _ in range(40):
        x = random_field_element(rng)
        y = random_field_element(rng)
        assert (x * y).specialize(vals) == x.specialize(vals) * y.specialize(vals)
        assert (x + y).specialize(vals) == x.specialize(vals) + y.specialize(vals)


def test_canonical_form_idempotent():
    rng = random.Random(4)
    for _ in range(50):
        x = random_field_element(rng)
        y = FieldElement(x.num, x.den)
        assert x.num == y.num and x.den == y.den
        z = x.canonical()
        assert z == x
        assert z.canonical().num == z.num


def test_cross_multiplication_agrees_with_full_normalization():
    rng = random.Random(5)
    for _ in range(40):
        f = random_field_element(rng)
        g = random_field_element(rng)
        h = random_field_element(rng)
        left = (f * h) / (g * h)
        right = f / g
        assert left == right
        lc, rc = left.canonical(), right.canonical()
        assert lc.num == rc.num and lc.den == rc.den


def test_gcd_threshold_reduction():
    # build an element with a huge removable factor: (big * x) / big
    rng = random.Random(6)
    big = {}
    for k in range(80):
        e = tuple(rng.randint(0, 3) for _ in range(6))
        big[e] = big.get(e, 0) + rng.randint(1, 4)
    assert len(big) > pf.GCD_TERM_THRESHOLD
    # big * q^(1/2): shift the first doubled exponent of every term by one
    x = FieldElement({(e[0] + 1,) + e[1:]: c for e, c in big.items()}, big)
    assert x == pf.SQRT_Q
    assert x.num == pf.SQRT_Q.num  # reduction actually fired


def test_gcd_skipped_on_a_one_term_side(monkeypatch):
    # a large numerator over a monomial times an integer: once the common
    # monomial and content are stripped, the gcd is a unit
    rng = random.Random(8)
    big = {}
    for k in range(80):
        e = tuple(rng.randint(0, 3) for _ in range(6))
        big[e] = big.get(e, 0) + rng.randint(1, 4)
    assert len(big) > pf.GCD_TERM_THRESHOLD
    calls = []
    full_reduce = pf._full_reduce

    def counting(num, den):
        calls.append(1)
        return full_reduce(num, den)

    monkeypatch.setattr(pf, "_full_reduce", counting)
    for den in ({(0, 1, 0, 2, 0, 0): 6}, {(1, 0, 0, 0, 0, 3): -4}):
        x = FieldElement(big, den)
        y = FieldElement(den, big)
        assert not calls
        for z in (x, y):
            reduced = z.canonical()
            assert z.num == reduced.num and z.den == reduced.den
        assert len(calls) == 2
        calls.clear()
    # both sides long: the reduction still runs
    FieldElement(big, {e: 1 for e in big})
    assert len(calls) == 1


def test_gcd_falls_back_when_the_heuristic_fails(monkeypatch):
    from sympy.polys.polyerrors import HeuristicGCDFailed
    from sympy.polys.rings import PolyElement

    common = ONE - pf.SQRT_T
    expected = ((ONE + pf.SQRT_Q) / (2 + pf.SQRT_U0)).canonical()

    def no_luck(f, g):
        raise HeuristicGCDFailed("no luck")

    monkeypatch.setattr(PolyElement, "_gcd_ZZ", no_luck)
    x = ((ONE + pf.SQRT_Q) * common) / ((2 + pf.SQRT_U0) * common)
    reduced = x.canonical()
    assert reduced.num == expected.num and reduced.den == expected.den


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        x = random_field_element(rng)
        blob = json.dumps(x.to_json_obj(), sort_keys=True)
        y = FieldElement.from_json_value(json.loads(blob))
        assert x == y
    assert ONE.to_json_value() == 1
    assert pf.ZERO.to_json_value() == 0
    assert FieldElement.from_json_value(-3) == -3


def test_unhashable():
    with pytest.raises(TypeError):
        hash(ONE)


def test_inequality_follows_equality():
    assert ONE != "x"
    assert not (ONE != 1)
    assert ONE != pf.SQRT_Q
    assert not (ONE / pf.SQRT_Q != ONE * pf.SQRT_Q ** (-1))


@pytest.mark.parametrize("obj", [
    [1, 2],
    {"num": 5},
    {"num": [["1", [0, 0]]], "den": [["1", [0, 0, 0, 0, 0, 0]]]},
    {"num": [["1", [0, 0, 0, 0, 0, 0]]]},
    {"num": [["1", [0, 0, 0, 0, 0, 0]]], "den": []},
    {"num": [["1.5", [0, 0, 0, 0, 0, 0]]], "den": [["1", [0] * 6]]},
    {"num": [[1.0, [0, 0, 0, 0, 0, 0]]], "den": [["1", [0] * 6]]},
    {"num": [["1", [0, 0, 0, 0, 0, 0.5]]], "den": [["1", [0] * 6]]},
    {"num": [["1", [1, 0, 0, 0, 0, 0]], ["2", [1, 0, 0, 0, 0, 0]]],
     "den": [["1", [0] * 6]]},
    True,
    "1",
])
def test_json_decoding_rejects_malformed_input(obj):
    with pytest.raises(ValueError):
        FieldElement.from_json_value(obj)


def test_laurent_scalar_inverts_only_units():
    r = pf.LaurentScalar.monomial((1, -2, 0, 0, 3, 0))
    assert r ** (-1) * r == 1
    assert (-r) ** (-2) == pf.LaurentScalar.monomial((-2, 4, 0, 0, -6, 0))
    assert r / r == 1
    for non_unit in (r + 1, r * 2, pf.LaurentScalar.from_int(0)):
        with pytest.raises(ArithmeticError):
            non_unit ** (-1)
        with pytest.raises(ArithmeticError):
            r / non_unit


def test_laurent_scalar_is_not_a_fraction():
    r = pf.LaurentScalar.monomial((1, 0, 0, 0, 0, 0))
    with pytest.raises(TypeError):
        r + Fraction(1, 2)
    with pytest.raises(TypeError):
        r * 1.5
    assert r != "x" and r != pf.SQRT_Q


def _old_power(base, k, one):
    """The loop that **'s repeated squaring replaced: it squared the base
    once more after the top bit of k."""
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _power_cases():
    from koornwinder.domains import SpecializedDomain
    from koornwinder.laurent import LaurentRing
    x = FieldElement({(1, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): -2},
                     {(0, 0, 1, 0, 0, 0): 3, (0, 0, 0, 0, 0, 0): 1})
    s = pf.LaurentScalar({(1, 0, 0, 0, 0, 0): 1, (0, -1, 0, 0, 0, 2): -2})
    ring = LaurentRing(2, SpecializedDomain())
    p = ring.gen(1) + ring.gen(2, -1).scale(Fraction(3, 2))
    return [(FieldElement, x, pf.ONE, lambda v: (v.num, v.den)),
            (pf.LaurentScalar, s, pf.LaurentScalar.from_int(1),
             lambda v: v.terms),
            (type(p), p, ring.one(), lambda v: v.terms)]


@pytest.mark.parametrize("case", range(3),
                         ids=["FieldElement", "LaurentScalar",
                              "LaurentPolynomial"])
def test_power_squares_no_further_than_the_top_bit(monkeypatch, case):
    cls, base, one, form = _power_cases()[case]
    products = []
    mul = cls.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    for k, expected in ((0, 0), (1, 0), (2, 1), (5, 3)):
        old = _old_power(base, k, one)
        monkeypatch.setattr(cls, "__mul__", counted)
        products.clear()
        got = base ** k
        monkeypatch.setattr(cls, "__mul__", mul)
        assert len(products) == expected
        assert got == old and form(got) == form(old)
    if cls is FieldElement:
        inverse = base ** -1
        assert form(inverse) == form(_old_power(base.inverse(), 1, one))
        assert inverse * base == pf.ONE
