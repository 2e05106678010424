import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from koornwinder import weyl
from koornwinder.domains import (Assignment, LaurentScalarDomain,
                                 SpecializedDomain, SymbolicDomain)
from koornwinder.laurent import (LaurentRing, ExactDivisionError,
                                 apply_simple_reflection, apply_translation,
                                 exact_divide, unit_normalize)
from koornwinder.noumi import NoumiRepresentation
from koornwinder.paramfield import FieldElement, LaurentScalar, _mul

from conftest import random_laurent


@pytest.fixture
def ring(specialized):
    return LaurentRing(2, specialized)


def test_ring_arithmetic(ring):
    x1, x2 = ring.gen(1), ring.gen(2)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    assert ring.one().coefficient((0, 0)) == 1
    assert ring.one().coefficient((5, 5)) == 0
    rng = random.Random(0)
    for _ in range(20):
        f = random_laurent(ring, rng)
        g = random_laurent(ring, rng)
        assert (f + g) - g == f
        assert f * g == g * f


def test_inequality_follows_equality(ring):
    x1 = ring.gen(1)
    assert ring.one() != 1
    assert ring.one() != x1
    assert not (x1 * x1 != x1 ** 2)


def test_exp_monomial(ring):
    d = ring.domain
    assert ring.exp_monomial((1, 0), 1) == ring.monomial((1, 0), d.q_pow(-1))
    assert ring.exp_monomial((0, 0), 0) == ring.one()
    rng = random.Random(1)
    for _ in range(30):
        v = (rng.randint(-2, 2), rng.randint(-2, 2))
        w = (rng.randint(-2, 2), rng.randint(-2, 2))
        kv, kw = rng.randint(-2, 2), rng.randint(-2, 2)
        prod = ring.exp_monomial(v, kv) * ring.exp_monomial(w, kw)
        total = ring.exp_monomial(tuple(a + b for a, b in zip(v, w)), kv + kw)
        assert prod == total


def test_simple_reflections(ring):
    d = ring.domain
    x1 = ring.gen(1)
    assert apply_simple_reflection(0, x1) == ring.monomial((-1, 0), d.q)
    xn = ring.gen(2)
    sym = xn + ring.gen(2, -1)
    assert apply_simple_reflection(2, sym) == sym
    rng = random.Random(2)
    for _ in range(20):
        f = random_laurent(ring, rng)
        for i in (0, 1, 2):
            assert apply_simple_reflection(i, apply_simple_reflection(i, f)) == f
        g = random_laurent(ring, rng)
        for i in (0, 1, 2):
            assert (apply_simple_reflection(i, f * g)
                    == apply_simple_reflection(i, f) * apply_simple_reflection(i, g))


def test_reflection_matches_functional_action(ring):
    # the two descriptions of the action agree on exponentials
    rng = random.Random(3)
    for _ in range(100):
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        k = rng.randint(-2, 2)
        for i in (0, 1, 2):
            sv, sk = weyl.functional_action(i, v, k)
            assert (apply_simple_reflection(i, ring.exp_monomial(v, k))
                    == ring.exp_monomial(sv, sk))


def test_translations(ring):
    d = ring.domain
    x1 = ring.gen(1)
    assert apply_translation(1, x1) == x1 * d.q
    rng = random.Random(4)
    for _ in range(20):
        e = (rng.randint(-3, 3), rng.randint(-3, 3))
        m = ring.monomial(e)
        assert apply_translation(1, m) == m * d.q_pow(e[0])
        assert apply_translation(2, m) == m * d.q_pow(e[1])
    assert apply_translation(1, ring.one()) == ring.one()
    f = random_laurent(ring, rng)
    t12 = apply_translation(1, apply_translation(2, f))
    t21 = apply_translation(2, apply_translation(1, f))
    assert t12 == t21
    assert apply_translation(1, apply_translation(1, f, -1)) == f


def test_exact_divide(ring):
    x1, x2 = ring.gen(1), ring.gen(2)
    assert exact_divide(x1 * x1 - x2 * x2, x1 - x2) == x1 + x2
    rng = random.Random(5)
    unit = ring.monomial((-1, 2), ring.domain.from_int(-3))
    for g in binomial_divisors(ring, rng) + [unit]:
        for _ in range(5):
            f = random_laurent(ring, rng)
            assert exact_divide(f * g, g) == f
    assert exact_divide(x1, ring.one()) == x1
    with pytest.raises(ExactDivisionError):
        exact_divide(x1 + ring.one(), x2 + ring.monomial((0, 0), ring.domain.from_int(2)))
    with pytest.raises(ZeroDivisionError):
        exact_divide(x1, ring.zero())


def test_exact_divide_rejects_three_terms(ring):
    # a product of binomials is divided one factor at a time
    x1, x2 = ring.gen(1), ring.gen(2)
    g = ring.one() + x1 + x2
    with pytest.raises(ValueError, match="two terms"):
        exact_divide(x1 * g, g)


def test_reflection_difference_divisible(ring):
    # (s_i f - f) is divisible by x_i - x_{i+1} for the middle reflection
    rng = random.Random(6)
    for _ in range(50):
        f = random_laurent(ring, rng, radius=3)
        diff = apply_simple_reflection(1, f) - f
        den = ring.gen(1) - ring.gen(2)
        h = exact_divide(diff, den)
        assert h * den == diff


def test_evaluate(ring):
    d = ring.domain
    f = ring.monomial((1, -1))
    assert f.evaluate((d.s * d.t, d.s)) == d.t
    assert ring.one().evaluate((d.s, d.s)) == 1
    rng = random.Random(7)
    pt = (d.s, d.t * d.s)
    for _ in range(20):
        f = random_laurent(ring, rng)
        g = random_laurent(ring, rng)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
    with pytest.raises(ValueError):
        ring.one().evaluate((d.zero, d.one))
    with pytest.raises(ValueError):
        ring.one().evaluate((d.one,))


def term_by_term(terms, point):
    """The reference sum: every term a Fraction product of its own."""
    total = Fraction(0)
    for e, c in terms.items():
        v = Fraction(c)
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        total += v
    return total


# coordinates that are negative, non-integer, or plain ints (a negative
# power of an int must stay a Fraction), per rank
_POINTS = ((Fraction(-3, 2),), (Fraction(5, 7), -2),
           (Fraction(-2, 9), Fraction(7, 4), 3),
           (2, Fraction(-1, 3), Fraction(11, 5), -5))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("low, high", [(1, 4), (-4, -1), (-3, 3)],
                         ids=["positive", "negative", "mixed"])
def test_specialized_evaluate_matches_term_by_term(specialized, n, low, high):
    # the common-denominator kernel against one Fraction product per term
    ring = LaurentRing(n, specialized)
    rng = random.Random(10 * n + low)
    points = [_POINTS[n - 1]]
    for _ in range(5):
        points.append(tuple(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                     rng.randint(1, 5)) for _ in range(n)))
    polys = []
    for size in (1, 2, 6, 12):
        terms = {}
        for _ in range(size):
            e = tuple(rng.randint(low, high) for _ in range(n))
            terms[e] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40),
                                rng.randint(1, 12))
        polys.append(ring.from_terms(terms))
    for f in polys:
        for point in points:
            value = f.evaluate(point)
            assert isinstance(value, Fraction)
            assert value == term_by_term(f.terms, point)
    zero = ring.zero()
    assert zero.evaluate(points[0]) == 0
    with pytest.raises(ValueError, match="zero coordinate"):
        polys[-1].evaluate((Fraction(0),) + points[0][1:])
    with pytest.raises(ValueError, match="zero coordinate"):
        zero.evaluate(points[0][:-1] + (0,))
    with pytest.raises(ValueError, match="wrong length"):
        polys[-1].evaluate(points[0] + (Fraction(1),))
    with pytest.raises(ValueError, match="wrong length"):
        zero.evaluate(points[0][1:])


@pytest.mark.parametrize("point", [(2, -3), (Fraction(2), Fraction(-3)),
                                   (Fraction(-3, 2), 5)],
                         ids=["int", "fraction", "mixed"])
def test_both_modes_evaluate_negative_powers_alike(point):
    # both domains sum over one common denominator, in ints or in Laurent
    # scalars; an int coordinate to a negative power must stay exact in
    # both
    terms = {(-1, 0): 3, (0, -2): -5, (-2, 1): 7, (1, 1): 1, (0, 0): -2}
    sym = LaurentRing(2, SymbolicDomain()).from_terms(terms).evaluate(point)
    spec = LaurentRing(2, SpecializedDomain()).from_terms(terms).evaluate(
        point)
    assert type(spec) is Fraction and type(sym) is FieldElement
    assert spec == term_by_term(terms, point)
    assert sym == FieldElement.from_fraction(spec)


def field_term_by_term(terms, point):
    """The reference symbolic sum: one FieldElement product per term,
    added one term at a time, each sum normalized."""
    total = FieldElement.from_int(0)
    for e, c in terms.items():
        v = c
        for x, k in zip(point, e):
            v = v * x ** k
        total = total + v
    return total


def test_symbolic_evaluate_over_coefficients_with_different_denominators(
        symbolic):
    d = symbolic
    f = LaurentRing(2, d).from_terms({
        (0, 0): 3, (1, 0): d.t / (1 + d.q), (0, 1): d.t / (1 - d.t),
        (-1, 2): d.a / (d.q - d.t), (2, -1): (1 + d.q) ** -2,
        (-2, -2): d.c * d.d / ((1 + d.q) * (d.q - d.t))})
    assert len({str(c.den) for c in f.terms.values()}) == 6
    points = [weyl.spectral_vector(label, d)
              for label in ((0, 0), (1, 0), (2, -1), (-1, 3))]
    # and points with coordinates that are not monomials
    points += [(1 + d.q, d.t), (d.s, (1 + d.q) ** -1),
               (Fraction(-3, 2), 1 - d.t)]
    for point in points:
        assert f.evaluate(point) == field_term_by_term(f.terms, point)


def test_cleared_numerators_stand_over_one_denominator(symbolic, specialized):
    d = symbolic
    coeffs = [d.t / (1 + d.q), d.a / (d.q - d.t), 1 / (1 - d.t * d.q) ** 2,
              d.c, FieldElement.from_fraction(Fraction(-5, 3))]
    num = {(k,): c for k, c in enumerate(coeffs)}
    nums, big = d.cleared(num)
    assert nums.keys() == num.keys()
    assert all(isinstance(v, LaurentScalar) for v in nums.values())
    for e, c in num.items():
        assert (nums[e] * LaurentScalar(c.den)).terms == _mul(c.num, big.terms)
    # equal denominators are taken as they are
    same = {(0,): d.t / (1 + d.q), (1,): d.q / (1 + d.q)}
    nums, big = d.cleared(same)
    assert big.terms == same[(0,)].den
    assert [v.terms for v in nums.values()] == [c.num for c in same.values()]
    ints = {(0,): 3, (2,): -7}
    assert specialized.cleared(ints) == (ints, 1)


@pytest.mark.parametrize("mode", ["symbolic", "specialized"])
def test_zero_polynomial_evaluates_to_zero(mode, request):
    domain = request.getfixturevalue(mode)
    zero = LaurentRing(2, domain).zero()
    for point in [(2, Fraction(-1, 3)), weyl.spectral_vector((1, 0), domain)]:
        value = zero.evaluate(point)
        assert type(value) is type(domain.one) and value == 0


def test_json_and_text(ring):
    f = ring.gen(1) + ring.monomial((0, -2), ring.domain.from_int(-3))
    blob = f.to_json()
    assert blob["n"] == 2
    exps = [tuple(t["exp"]) for t in blob["terms"]]
    assert exps == sorted(exps)
    assert ring.from_json(json.loads(json.dumps(blob))) == f
    text = f.text()
    assert "x1" in text and "x2^-2" in text
    assert ring.zero().text() == "0"


def test_unit_normalize(ring):
    d = ring.domain
    f = ring.monomial((-1, 2), d.from_int(-2)) + ring.monomial((0, 1), d.from_int(4))
    shift, lead, canon = unit_normalize(f)
    assert ring.monomial(shift, lead) * canon == f
    assert min(e[0] for e in canon.terms) == 0
    assert min(e[1] for e in canon.terms) == 0


def test_symbolic_ring_coefficients(symbolic):
    ring = LaurentRing(1, symbolic)
    x = ring.gen(1)
    f = x * symbolic.t_sqrt + ring.one()
    assert f.coefficient((1,)) == symbolic.t_sqrt
    assert apply_simple_reflection(0, f) == ring.monomial((-1,), symbolic.q * symbolic.t_sqrt) + ring.one()


def test_symbolic_json_round_trip(symbolic):
    ring = LaurentRing(2, symbolic)
    f = (ring.monomial((1, -1), symbolic.a)
         + ring.monomial((0, 2), symbolic.one / (symbolic.one - symbolic.q)))
    blob = json.loads(json.dumps(f.to_json()))
    assert ring.from_json(blob) == f
    with pytest.raises(ValueError):
        LaurentRing(3, symbolic).from_json(blob)


# -- exact division, property-based -------------------------------------------

division_settings = settings(derandomize=True, deadline=None, max_examples=80)


@st.composite
def laurent_pairs(draw):
    """(f, g, e) in a ring of rank 1 to 3 over the default specialization:
    f and g with small support and rational coefficients, g of one or two
    terms (the divisors exact_divide takes), and an exponent vector e."""
    n = draw(st.integers(1, 3))
    ring = LaurentRing(n, SpecializedDomain())
    exps = st.tuples(*[st.integers(-2, 2)] * n)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    f = ring.from_terms(draw(st.dictionaries(exps, coeffs, max_size=4)))
    g = ring.from_terms(draw(st.dictionaries(exps, coeffs.filter(bool),
                                             min_size=1, max_size=2)))
    return f, g, draw(exps)


@division_settings
@given(laurent_pairs())
def test_exact_divide_recovers_the_cofactor(pair):
    f, g, _ = pair
    assert exact_divide(f * g, g) == f


@division_settings
@given(laurent_pairs())
def test_exact_divide_rejects_a_remainder(pair):
    # the units of a Laurent ring are the monomials, so x^e is divisible
    # by g, and f*g + x^e is, only when g is one
    f, g, e = pair
    assume(len(g.terms) > 1)
    with pytest.raises(ExactDivisionError):
        exact_divide(f * g + g.ring.monomial(e), g)


# -- exact division by a binomial (synthetic division along lines) -------------

def binomial_divisors(ring, rng):
    """Two-term divisors c_a x^a + c_b x^b, a the graded-lex leading
    exponent and w = a - b: monic with c_b = -1, monic with a q-type c_b,
    non-monic, and (from n = 2 on; in one variable w > 0) one with w
    negative in its first nonzero entry."""
    dom, n = ring.domain, ring.n

    def exponents():
        return tuple(rng.randint(-2, 2) for _ in range(n))

    def pair():
        a, b = exponents(), exponents()
        while a == b:
            b = exponents()
        return sorted((a, b), key=lambda e: (sum(e), e), reverse=True)

    def scalar():
        return dom.from_int(rng.choice((-3, -2, 2, 3)))

    out = []
    for ca, cb in ((dom.one, -dom.one), (dom.one, -dom.q),
                   (scalar(), dom.t * scalar())):
        a, b = pair()
        out.append(ring.from_terms({a: ca, b: cb}))
    if n >= 2:
        b = exponents()
        a = (b[0] - 1, b[1] + 2) + b[2:]
        out.append(ring.from_terms({a: scalar(), b: dom.q * scalar()}))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mode", ["specialized", "symbolic"])
def test_exact_divide_by_a_binomial(n, mode, request):
    ring = LaurentRing(n, request.getfixturevalue(mode))
    rng = random.Random(n)
    for _ in range(4):
        for g in binomial_divisors(ring, rng):
            f = random_laurent(ring, rng, radius=3)
            assert exact_divide(f * g, g) == f
            e = tuple(rng.randint(-2, 2) for _ in range(n))
            with pytest.raises(ExactDivisionError):
                exact_divide(f * g + ring.monomial(e), g)
            assert exact_divide(ring.zero(), g) == ring.zero()


# -- the integer-numerator representation against plain Fraction dicts -------

# q^(1/2) = -1/2, so q = 1/4: reflections and shifts by q scale by powers
# of a non-integral rational
RATIONAL_Q = SpecializedDomain(
    Assignment.make(("-1/2", 3, "5/3", 7, 11, "-13")))
representation_settings = settings(derandomize=True, deadline=None,
                                   max_examples=60)
_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def fraction_dicts(draw, n=None, min_size=0, max_size=5):
    """(n, {exponent: nonzero Fraction}) with exponents in -2..2, so some
    are negative."""
    n = draw(st.integers(1, 3)) if n is None else n
    exps = st.tuples(*[st.integers(-2, 2)] * n)
    terms = draw(st.dictionaries(exps, _fractions.filter(bool),
                                 min_size=min_size, max_size=max_size))
    return n, terms


def _terms(f):
    """f.terms, after checking the stored form: int numerators over a
    positive int denominator coprime to their content."""
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int and c for c in f.num.values())
    assert math.gcd(f.den, *f.num.values()) == 1
    return f.terms


def _poly(terms, n, domain=RATIONAL_Q):
    f = LaurentRing(n, domain).from_terms(terms)
    assert _terms(f) == terms
    return f


def _ref_sum(*dicts):
    out = {}
    for d in dicts:
        for e, c in d.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@representation_settings
@given(st.data())
def test_arithmetic_matches_fraction_dicts(data):
    n, a = data.draw(fraction_dicts())
    _, b = data.draw(fraction_dicts(n))
    c = data.draw(_fractions)
    f, g = _poly(a, n), _poly(b, n)
    assert _terms(f + g) == _ref_sum(a, b)
    assert _terms(f - g) == _ref_sum(a, {e: -v for e, v in b.items()})
    assert _terms(-f) == {e: -v for e, v in a.items()}
    assert _terms(f.scale(c)) == {e: v * c for e, v in a.items() if v * c}
    assert _terms(f * g) == _ref_product(a, b)
    for e in a:
        assert f.coefficient(e) == a[e]


@representation_settings
@given(fraction_dicts(), st.sampled_from([1, -1]))
def test_actions_match_fraction_dicts(pair, sign):
    n, a = pair
    f = _poly(a, n)
    q = RATIONAL_Q.q
    assert q == Fraction(1, 4)
    for i in range(n + 1):
        if i == 0:
            want = {(-e[0],) + e[1:]: c * q ** e[0] for e, c in a.items()}
        elif i == n:
            want = {e[:-1] + (-e[-1],): c for e, c in a.items()}
        else:
            want = {e[:i - 1] + (e[i], e[i - 1]) + e[i + 1:]: c
                    for e, c in a.items()}
        assert _terms(apply_simple_reflection(i, f)) == want
    for i in range(1, n + 1):
        want = {e: c * q ** (sign * e[i - 1]) for e, c in a.items()}
        assert _terms(apply_translation(i, f, sign)) == want


@representation_settings
@given(st.data())
def test_evaluate_matches_fraction_dicts(data):
    n, a = data.draw(fraction_dicts())
    point = data.draw(st.tuples(*[_fractions.filter(bool)] * n))
    assert _poly(a, n).evaluate(point) == term_by_term(a, point)


@representation_settings
@given(st.data())
def test_exact_divide_matches_fraction_dicts(data):
    n, a = data.draw(fraction_dicts())
    _, b = data.draw(fraction_dicts(n, min_size=1, max_size=2))
    f, g = _poly(a, n), _poly(b, n)
    if len(b) == 1:
        (e, c), = b.items()
        want = {tuple(x - y for x, y in zip(k, e)): v / c
                for k, v in a.items()}
        assert _terms(exact_divide(f, g)) == want
    assert _terms(exact_divide(_poly(_ref_product(a, b), n), g)) == a


@representation_settings
@given(fraction_dicts(), st.integers(2, 30))
def test_equality_is_rational_equality(pair, k):
    n, a = pair
    f = _poly(a, n)
    ring = f.ring
    # the same polynomial through other denominators: numerators scaled
    # by k over a denominator k times larger, and a detour through a
    # term over the denominator k
    scaled = f.scale(Fraction(1, k)).scale(k)
    detour = ring.monomial((0,) * n, Fraction(1, k))
    assert scaled == f
    assert (f + detour) - detour == f
    assert ring.from_terms({e: c * k for e, c in a.items()}).scale(
        Fraction(1, k)) == f
    if a:
        e = min(a)
        bumped = dict(a)
        bumped[e] += Fraction(1, k)
        assert ring.from_terms(bumped) != f


# -- exact division edge cases --------------------------------------------------

def test_exact_divide_by_non_monic_integer_forms():
    ring = LaurentRing(2, RATIONAL_Q)
    x1, x2 = ring.gen(1), ring.gen(2)
    two = ring.domain.from_int(2)
    # 2 x - 2: the integer form has content 2
    g = x1.scale(two) - ring.scalar(two)
    f = x1 * x1 - ring.one()
    assert exact_divide(f, g) == (x1 + ring.one()).scale(Fraction(1, 2))
    # (1/3) x_1^2 - 5/7 has the primitive integer form 7 x_1^2 - 15
    g = ring.from_terms({(2, 0): Fraction(1, 3), (0, 0): Fraction(-5, 7)})
    assert (g.num, g.den) == ({(2, 0): 7, (0, 0): -15}, 21)
    h = ring.from_terms({(1, -1): Fraction(2, 5), (-2, 0): -3, (0, 1): 1})
    assert exact_divide(g * h, g) == h
    assert exact_divide(g * h, g.scale(Fraction(-4, 9)) * x2) \
        == h.scale(Fraction(-9, 4)) * ring.gen(2, -1)
    # a dividend that does not divide: the remainder check, and a first
    # quotient step that is not an integer
    with pytest.raises(ExactDivisionError):
        exact_divide(g * h + x2, g)
    with pytest.raises(ExactDivisionError):
        exact_divide(x1 * x1 * x1 - ring.one(), g)
    # T_0's divisor x_1^2 - q at q = 1/4, in integer form 4 x_1^2 - 1
    d = x1 * x1 - ring.scalar(ring.domain.q)
    assert (d.num, d.den) == ({(2, 0): 4, (0, 0): -1}, 4)
    assert exact_divide(x1 * x1 * x1 * x1 - ring.scalar(ring.domain.q ** 2),
                        d) == x1 * x1 + ring.scalar(ring.domain.q)


def test_one_term_int_divisor_never_gives_a_float(ring):
    x1 = ring.gen(1)
    f = x1 + ring.monomial((0, -1), Fraction(5, 3))
    for c in (2, -3, Fraction(7, 2)):
        g = ring.from_terms({(1, 1): c})
        h = exact_divide(f, g)
        assert all(type(v) is Fraction for v in h.terms.values())
        assert all(type(v) is int for v in h.num.values())
        assert h * g == f
        assert h.terms == {(0, -1): Fraction(1) / c,
                           (-1, -2): Fraction(5, 3) / c}


# -- scalars enter a polynomial through the domain's split ------------------------

DOMAINS = {"symbolic": SymbolicDomain(), "raw": LaurentScalarDomain(),
           "specialized": SpecializedDomain()}


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_int_scalars_become_domain_scalars(name):
    domain = DOMAINS[name]
    ring = LaurentRing(2, domain)
    k = domain.from_int
    e = (1, -1)
    for f, want in [
            (ring.monomial(e, 2), ring.monomial(e, k(2))),
            (ring.scalar(-3), ring.scalar(k(-3))),
            (ring.from_terms({e: 2, (0, 0): -1}),
             ring.from_terms({e: k(2), (0, 0): k(-1)})),
            (ring.gen(1).scale(5), ring.gen(1).scale(k(5))),
            (5 * ring.gen(1), ring.gen(1).scale(k(5)))]:
        assert f.terms == want.terms
        assert {type(c) for c in f.terms.values()} == {type(domain.one)}
        assert type(f.coefficient((0, 0))) is type(domain.one)
        assert f.to_json() == want.to_json()


def test_raw_polynomials_write_out_as_their_symbolic_twins():
    raw, symbolic = DOMAINS["raw"], DOMAINS["symbolic"]
    raw_ring, ring = LaurentRing(2, raw), LaurentRing(2, symbolic)
    y = NoumiRepresentation(raw_ring).y
    for f in (raw_ring.one(), y(1, raw_ring.gen(1)), y(2, raw_ring.gen(2, -1))):
        twin = ring.from_terms({e: symbolic.from_raw(c)
                                for e, c in f.terms.items()})
        assert f.to_json() == twin.to_json()


def test_fraction_scalars_in_the_symbolic_ring():
    ring = LaurentRing(1, DOMAINS["symbolic"])
    c = Fraction(-2, 3)
    want = ring.monomial((1,), FieldElement.from_fraction(c))
    for f in (ring.monomial((1,), c), ring.from_terms({(1,): c}),
              ring.gen(1).scale(c)):
        assert f.terms == want.terms
        assert type(f.terms[(1,)]) is FieldElement
        assert f.to_json() == want.to_json()


@pytest.mark.parametrize("name, c", [
    ("raw", Fraction(1, 2)), ("raw", 0.5), ("symbolic", 0.5),
    ("specialized", 0.5), ("specialized", "1/2")])
def test_other_scalars_are_refused(name, c):
    ring = LaurentRing(1, DOMAINS[name])
    for build in (lambda: ring.monomial((1,), c),
                  lambda: ring.from_terms({(1,): c}),
                  lambda: ring.gen(1).scale(c)):
        with pytest.raises(TypeError):
            build()


# -- symbolic arithmetic against plain dicts of ring scalars ----------------------

def _scalar_pool(domain):
    """A few scalars of the domain and their negatives, so that drawn
    coefficients both collide and cancel."""
    d = domain
    base = [d.one, d.q_sqrt, d.t - d.from_int(2), d.a * d.s - d.u0_sqrt ** -1,
            d.c_eps]
    if d is DOMAINS["symbolic"]:
        base.append(d.tn_sqrt / (d.one - d.q))
    return base + [-x for x in base]


POOLS = {name: _scalar_pool(DOMAINS[name]) for name in ("symbolic", "raw")}


@st.composite
def scalar_dicts(draw, name, n):
    exps = st.tuples(*[st.integers(-1, 1)] * n)
    return draw(st.dictionaries(exps, st.sampled_from(POOLS[name]),
                                max_size=4))


def _scalar_terms(f):
    """f.terms, after checking the stored form: nonzero domain scalars
    over the denominator 1."""
    one = f.ring.domain.one
    assert f.den == 1
    assert all(type(c) is type(one) and c for c in f.num.values())
    return f.terms


@representation_settings
@given(st.data(), st.sampled_from(["symbolic", "raw"]), st.integers(1, 2))
def test_symbolic_arithmetic_matches_dicts(data, name, n):
    a = data.draw(scalar_dicts(name, n))
    b = data.draw(scalar_dicts(name, n))
    ring = LaurentRing(n, DOMAINS[name])
    f, g = ring.from_terms(a), ring.from_terms(b)
    assert _scalar_terms(f) == a
    assert _scalar_terms(f + g) == _ref_sum(a, b)
    assert _scalar_terms(f - g) == _ref_sum(a, {e: -v for e, v in b.items()})
    assert _scalar_terms(-f) == {e: -v for e, v in a.items()}
    assert _scalar_terms(f * g) == _ref_product(a, b)
    assert _scalar_terms(f - f) == {}


@pytest.mark.parametrize("name", ["symbolic", "raw"])
def test_sums_never_add_a_ring_coefficient_to_zero(name, monkeypatch):
    d = DOMAINS[name]
    ring = LaurentRing(2, d)
    f = ring.from_terms({(1, 0): d.q_sqrt, (0, 1): d.t_sqrt, (0, 0): d.one})
    cases = []
    for terms in ({(-1, 0): d.t_sqrt, (2, 2): d.q_sqrt + d.t},   # disjoint
                  {(1, 0): d.t_sqrt, (0, 1): -d.t_sqrt,        # overlapping
                   (-1, 1): d.a}):
        g = ring.from_terms(terms)
        cases.append((g, _ref_sum(f.terms, terms),
                      _ref_sum(f.terms, {e: -c for e, c in terms.items()}),
                      _ref_product(f.terms, terms)))

    def refuse(self, other):
        raise AssertionError("a ring coefficient was added to %r" % (other,))

    monkeypatch.setattr(FieldElement, "__radd__", refuse)
    monkeypatch.setattr(LaurentScalar, "__radd__", refuse)
    for g, total, difference, product in cases:
        assert (f + g).terms == (g + f).terms == total
        assert (f - g).terms == difference
        assert (-(g - f)).terms == difference
        assert (f * g).terms == (g * f).terms == product


def test_line_division_kernel_reports_a_remainder():
    # the kernel on plain int term dicts in six variables, as the trial
    # division of symbolic coefficients calls it: each line along w is
    # divided by z + c_b, z = x^w; a quotient, or None on a remainder
    from koornwinder.laurent import _divide_lines, _line_terms, _lines
    from koornwinder.paramfield import _add, _mul
    rng = random.Random(5)
    for _ in range(30):
        a = tuple(rng.randint(0, 2) for _ in range(6))
        b = tuple(rng.randint(0, 2) for _ in range(6))
        if a == b:
            continue
        w = tuple(x - y for x, y in zip(a, b))
        cb = rng.choice((1, -1))
        h = {tuple(rng.randint(-2, 2) for _ in range(6)): rng.randint(-3, 3)
             for _ in range(6)}
        h = {e: c for e, c in h.items() if c}
        if not h:
            continue
        f = _mul({a: 1, b: cb}, h)
        neg_cb = None if cb == -1 else -cb
        lines = _divide_lines(_lines(f, w), None, neg_cb)
        assert _line_terms(lines, w, b) == h
        # a monomial is a unit, so f + x^e is divisible only if the
        # binomial were a unit too
        e = tuple(rng.randint(-2, 2) for _ in range(6))
        assert _divide_lines(_lines(_add(f, {e: 1}), w), None, neg_cb) is None
        assert _divide_lines(_lines({e: 1}, w), None, neg_cb) is None
