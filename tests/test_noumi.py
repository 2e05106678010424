import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koornwinder import noumi, weyl
from koornwinder.laurent import LaurentRing, apply_simple_reflection
from koornwinder.noumi import (NoumiRepresentation, character_value,
                               check_daha_relations, monomial_exponents)
from koornwinder.domains import (Assignment, LaurentScalarDomain,
                                 SpecializedDomain)
from koornwinder.paramfield import FieldElement, LaurentScalar
from koornwinder.polynomials import KoornwinderFamily

from conftest import random_field_element, random_laurent


@pytest.fixture(scope="module")
def rep2(specialized):
    return NoumiRepresentation(LaurentRing(2, specialized))


@pytest.fixture(scope="module")
def rep1(symbolic):
    return NoumiRepresentation(LaurentRing(1, symbolic))


def test_t_on_constants(rep2):
    one = rep2.ring.one()
    for i in (0, 1, 2):
        assert rep2.t(i, one) == one * rep2.domain.t_half(i, 2)
        assert rep2.t(i, one, -1) == one * rep2.domain.t_half(i, 2) ** (-1)


def test_t_on_invariant_input(rep2):
    sym = rep2.ring.gen(2) + rep2.ring.gen(2, -1)
    assert rep2.t(2, sym) == sym * rep2.domain.tn_sqrt


def test_t1_on_x1(rep2):
    # forced by the cross relation applied to the constant one
    d = rep2.domain
    assert rep2.t(1, rep2.ring.gen(1)) == rep2.ring.gen(2) * d.t_sqrt ** (-1)
    assert rep2.t(1, rep2.x(1, rep2.ring.one())) == rep2.x(2, rep2.t(1, rep2.ring.one(), -1))


def test_quadratic_relation(rep2):
    rng = random.Random(0)
    d = rep2.domain
    for _ in range(10):
        f = random_laurent(rep2.ring, rng)
        for i in (0, 1, 2):
            gap = d.t_half(i, 2) - d.t_half(i, 2) ** (-1)
            assert rep2.t(i, f) - rep2.t(i, f, -1) == f * gap
            assert rep2.t(i, rep2.t(i, f), -1) == f


def literal_t_sides(rep, i, f, sign):
    """Both sides of den_i (T_i^(+-1) f - t_i^(+-1/2) f) ==
    t_i^(-1/2) num_i (s_i f - f), with num_i and den_i written out here.

    No division: den_i is nonzero and the Laurent ring is an integral
    domain, so the equation holds iff T_i^(+-1) f is the divided
    difference t_i^(+-1/2) f + t_i^(-1/2) num_i (s_i f - f) / den_i.
    """
    ring, dom, n = rep.ring, rep.domain, rep.n
    one, x = ring.one(), ring.gen
    if i == 0:
        num = (x(1) - ring.scalar(dom.c)) * (x(1) - ring.scalar(dom.d))
        den = x(1) * x(1) - ring.scalar(dom.q)
    elif i == n:
        num = (one - x(n).scale(dom.a)) * (one - x(n).scale(dom.b))
        den = one - x(n) * x(n)
    else:
        num = x(i + 1) - x(i).scale(dom.t)
        den = x(i + 1) - x(i)
    half = dom.t_half(i, n)
    lhs = (rep.t(i, f, sign) - f * half ** sign) * den
    rhs = num * (apply_simple_reflection(i, f) - f) * half ** (-1)
    return lhs, rhs


laurent_terms = st.dictionaries(
    st.tuples(*[st.integers(-2, 2)] * 3),
    st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 4)), max_size=4)

# a rational assignment, and q^(1/2) = 1/2: q = 1/4 makes _grid_pool skip
# x = 2 and sends T_0 through the lcm of the q powers' denominators, and
# the parts of q, of several parameters and of the constants of T_i have
# denominators other than 1
RATIONAL = "-1/2,3,5/3,7,11,-13"
HALF_Q = "1/2,3,5,7,11,13"


def _specialized(assignment):
    return SpecializedDomain(assignment and Assignment.parse(assignment))


T_DOMAINS = {"rational": lambda: _specialized(RATIONAL),
             "raw": LaurentScalarDomain}


def assert_reduced(g):
    """g is in the stored form the Laurent layer promises: a positive
    int den coprime to the content of int numerators (den 1 over a
    symbolic domain), and no zero numerator."""
    values = list(g.num.values())
    assert isinstance(g.den, int) and g.den > 0
    assert all(values)
    if all(isinstance(c, int) for c in values):
        assert math.gcd(g.den, *values) == 1
    else:
        assert g.den == 1


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mode", ["specialized", "symbolic", "rational", "raw"])
def test_t_matches_the_literal_divided_difference(n, mode, request):
    """Integer and Fraction coefficients (raw: integers, its only
    scalars), at the default and a rational assignment and on the raw
    domain of the symbolic chains; every output reduced, and T_i^(-1)
    inverting T_i."""
    dom = (T_DOMAINS[mode]() if mode in T_DOMAINS
           else request.getfixturevalue(mode))
    rep = NoumiRepresentation(LaurentRing(n, dom))
    raw = isinstance(dom, LaurentScalarDomain)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(laurent_terms)
    def check(terms):
        f = rep.ring.from_terms(
            {e[:n]: dom.from_int(c) if raw else Fraction(c, d)
             for e, (c, d) in terms.items()})
        for i in range(n + 1):
            for sign in (1, -1):
                lhs, rhs = literal_t_sides(rep, i, f, sign)
                assert lhs == rhs
                image = rep.t(i, f, sign)
                assert_reduced(image)
                assert rep.t(i, image, -sign) == f

    check()


@pytest.mark.parametrize("sign", [0, 2, -2, Fraction(1, 2)])
def test_operators_refuse_a_sign_other_than_one_or_minus_one(rep2, sign):
    f = rep2.ring.gen(1) + rep2.ring.gen(2, -1)
    for apply in (lambda: rep2.t(1, f, sign), lambda: rep2.t(0, f, sign),
                  lambda: rep2.x(1, f, sign), lambda: rep2.y(1, f, sign),
                  lambda: rep2.u0(f, sign), lambda: rep2.un(f, sign)):
        with pytest.raises(ValueError, match="sign"):
            apply()


def test_x_operators(rep2):
    rng = random.Random(1)
    f = random_laurent(rep2.ring, rng)
    assert rep2.x(1, rep2.ring.one()) == rep2.ring.gen(1)
    assert rep2.x(1, rep2.x(1, f, -1)) == f
    assert rep2.x(1, rep2.x(2, f)) == rep2.x(2, rep2.x(1, f))


def test_y_on_constants(rep2):
    rho = weyl.spectral_vector((0, 0), rep2.domain)
    one = rep2.ring.one()
    for i in (1, 2):
        assert rep2.y(i, one) == one * rho[i - 1]


def test_y_commute_and_invert(rep2):
    rng = random.Random(2)
    for _ in range(5):
        f = random_laurent(rep2.ring, rng)
        assert rep2.y(1, rep2.y(2, f)) == rep2.y(2, rep2.y(1, f))
        for i in (1, 2):
            assert rep2.y(i, rep2.y(i, f), -1) == f


def test_u_relations(rep2):
    d = rep2.domain
    rng = random.Random(3)
    for _ in range(10):
        f = random_laurent(rep2.ring, rng)
        assert rep2.u0(f) - rep2.u0(f, -1) == f * (d.u0_sqrt - d.u0_sqrt ** (-1))
        assert rep2.un(f) - rep2.un(f, -1) == f * (d.un_sqrt - d.un_sqrt ** (-1))


@pytest.mark.parametrize("n, mode", [
    (1, "specialized"), (2, "specialized"), (3, "specialized"),
    (1, "symbolic"), (2, "symbolic")])
def test_y_u0_un_round_trip(n, mode, request):
    rep = NoumiRepresentation(LaurentRing(n, request.getfixturevalue(mode)))
    rng = random.Random(20 + n)
    for _ in range(3):
        f = random_laurent(rep.ring, rng, radius=2, terms=3)
        for i in range(1, n + 1):
            assert rep.y(i, rep.y(i, f), -1) == f == rep.y(i, rep.y(i, f, -1))
        for op in (rep.u0, rep.un):
            assert op(op(f), -1) == f == op(op(f, -1))


@pytest.mark.parametrize("n, mode", [
    (2, "specialized"), (3, "specialized"), (2, "symbolic")])
def test_y_satisfies_the_bernstein_relation(n, mode, request):
    # Y_i = T_i Y_{i+1} T_i (Sahi, Ann. Math. 150, 1999)
    rep = NoumiRepresentation(LaurentRing(n, request.getfixturevalue(mode)))
    rng = random.Random(30 + n)
    for _ in range(3):
        f = random_laurent(rep.ring, rng, radius=2, terms=3)
        for i in range(1, n):
            assert rep.y(i, f) == rep.t(i, rep.y(i + 1, rep.t(i, f)))


def test_un_definitional(rep2):
    one = rep2.ring.one()
    direct = rep2.un(one)
    composed = rep2.x(1, rep2.t(0, rep2.y(1, one, -1)), -1)
    assert direct == composed
    rho1 = weyl.spectral_vector((0, 0), rep2.domain)[0]
    assert direct == rep2.ring.monomial((-1, 0), rho1 ** (-1) * rep2.domain.t0_sqrt)


def test_t_word_braid_equality(rep2):
    # two reduced words of the same element act identically
    rng = random.Random(4)
    for _ in range(5):
        f = random_laurent(rep2.ring, rng)
        assert rep2.t_word((1, 2, 1, 2), f) == rep2.t_word((2, 1, 2, 1), f)


def test_character(rep2):
    d = rep2.domain
    assert character_value((), d, 2) == d.one
    assert character_value((2,), d, 2) == d.tn_sqrt
    assert character_value((1, 2, 1), SpecializedDomain(), 3) == SpecializedDomain().t_sqrt ** 3


def test_symmetrizer(rep2):
    one = rep2.ring.one()
    assert rep2.symmetrizer(one) == one
    sym = rep2.ring.gen(1) + rep2.ring.gen(2) + rep2.ring.gen(1, -1) + rep2.ring.gen(2, -1)
    assert rep2.symmetrizer(sym) == sym
    rng = random.Random(5)
    for _ in range(4):
        f = random_laurent(rep2.ring, rng)
        g = rep2.symmetrizer(f)
        assert rep2.symmetrizer(g) == g
        for i in (1, 2):
            assert apply_simple_reflection(i, g) == g


def literal_symmetrizer(rep, f):
    """The definition: sum_w chi(w) T_w f / sum_w chi(w)^2 over all of W0."""
    dom, n = rep.domain, rep.n
    total, norm = rep.ring.zero(), dom.zero
    for _, word in weyl.enumerate_W0(n):
        chi = character_value(word, dom, n)
        total = total + rep.t_word(word, f) * chi
        norm = norm + chi * chi
    return total * norm ** (-1)


@pytest.mark.parametrize("n, mode, inputs", [
    (1, "specialized", 4), (2, "specialized", 4), (3, "specialized", 4),
    (2, "symbolic", 3)])
def test_symmetrizer_matches_definition(n, mode, inputs, request):
    rep = NoumiRepresentation(LaurentRing(n, request.getfixturevalue(mode)))
    rng = random.Random(10 + n)
    for _ in range(inputs):
        f = random_laurent(rep.ring, rng, radius=2, terms=3)
        assert rep.symmetrizer(f) == literal_symmetrizer(rep, f)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetrizer_applies_t_n_squared_times(n, specialized):
    rep = NoumiRepresentation(LaurentRing(n, specialized))
    calls = []
    t = rep.t

    def counting_t(i, f, sign=1):
        calls.append(i)
        return t(i, f, sign)

    rep.t = counting_t
    assert rep.symmetrizer(rep.ring.one()) == rep.ring.one()
    assert len(calls) == n * n


def test_symmetric_constant_beyond_enumeration_cap():
    family = KoornwinderFamily(7, SpecializedDomain())
    assert family.symmetric((0,) * 7).poly == family.ring.one()


def test_koornwinder_d_kills_constants(rep1, rep2):
    assert not rep1.koornwinder_d(rep1.ring.one())
    assert not rep2.koornwinder_d(rep2.ring.one())


def test_koornwinder_d_eigen_rank_one(rep1):
    # the weight-one symmetric polynomial: solve for the constant term
    ring, d = rep1.ring, rep1.domain
    m = ring.gen(1) + ring.gen(1, -1)
    image = rep1.koornwinder_d(m)
    d1 = rep1.d_eigenvalue((1,))
    assert image.coefficient((1,)) == d1
    assert image.coefficient((-1,)) == d1
    c0 = image.coefficient((0,)) / d1
    p1 = m + ring.scalar(c0)
    assert rep1.koornwinder_d(p1) == p1 * d1


@pytest.mark.parametrize("mode, n", [("specialized", 1), ("specialized", 2),
                                     ("specialized", 3), ("symbolic", 1)])
def test_koornwinder_d_rejects_nonsymmetric(mode, n, request):
    rep = NoumiRepresentation(LaurentRing(n, request.getfixturevalue(mode)))
    ring = rep.ring
    with pytest.raises(ValueError):
        rep.koornwinder_d(ring.gen(1))
    if n > 1:
        # invariant under each inversion but not under permutations:
        # the first factors divide, and a later one, x_i - x_j, does not
        with pytest.raises(ValueError):
            rep.koornwinder_d(ring.gen(n) + ring.gen(n, -1))


def test_koornwinder_d_defined_on_symmetrizer_image(rep2):
    # the operator preserves the symmetric subspace, so it never hits a
    # division error after the symmetrizer
    rng = random.Random(8)
    for _ in range(5):
        f = random_laurent(rep2.ring, rng, radius=2)
        rep2.koornwinder_d(rep2.symmetrizer(f))


def test_d_eigenvalue_values(rep1, rep2):
    d = rep1.domain
    assert not rep1.d_eigenvalue((0,))
    assert not rep2.d_eigenvalue((0, 0))
    expected = (d.q_pow(-1) * d.a * d.b * d.c * d.d * (d.q - d.one)
                + d.q_pow(-1) - d.one)
    assert rep1.d_eigenvalue((1,)) == expected
    with pytest.raises(ValueError):
        rep2.d_eigenvalue((1, 2))


def test_d_eigenvalue_spectral_identity(rep1):
    # the eigenvalue is s*t^(n-1) times the shifted character sum
    for n, rep in ((1, rep1),):
        d = rep.domain
        for lam in [(1,), (2,), (4,)]:
            rho = weyl.spectral_vector((0,) * n, d)
            total = d.zero
            for i in range(n):
                val = d.q_pow(lam[i]) * rho[i]
                total = total + val + val ** (-1) - rho[i] - rho[i] ** (-1)
            assert rep.d_eigenvalue(lam) == d.s * d.t ** (n - 1) * total


def test_filtration_bounds(rep2):
    for e in monomial_exponents(2, 2):
        m = rep2.ring.monomial(e)
        k = sum(abs(x) for x in e)
        for i in (0, 1, 2):
            assert rep2.t(i, m).abs_degree() <= k
        for i in (1, 2):
            assert rep2.y(i, m).abs_degree() <= k
        assert rep2.un(m).abs_degree() <= k + 1


def test_relation_suite_specialized(specialized):
    report = check_daha_relations(2, 1, specialized)
    assert all(r["status"] == "pass" for r in report)
    names = [r["relation"] for r in report]
    assert "commutation T2 X1" in names  # the boundary commutation
    assert "commutation T0 X2" in names
    assert not any("T1 X1" in name and "commutation" in name for name in names)


def test_relation_suite_symbolic_rank_one(symbolic):
    report = check_daha_relations(1, 1, symbolic)
    assert all(r["status"] == "pass" for r in report)
    names = {r["relation"] for r in report}
    assert names == {"quadratic T0", "quadratic T1",
                     "quadratic X1^-1 T1^-1 (un)", "quadratic U0 (u0)"}


def test_relation_suite_symbolic_rank_two(symbolic):
    report = check_daha_relations(2, 1, symbolic)
    assert all(r["status"] == "pass" for r in report)
    names = {r["relation"] for r in report}
    assert "braid T0 T1 (order 4)" in names
    assert "braid T0 T2 (order 2)" in names
    assert "cross relation T1 X1" in names


def test_relation_suite_refuses_a_negative_degree(specialized):
    # over an empty set of test polynomials every relation would pass
    with pytest.raises(ValueError):
        check_daha_relations(2, -1, specialized)


def test_relation_suite_reports_a_broken_operator(specialized, broken_t1):
    # T_1 reads the broken t_1^(1/2) only on s_1-invariant input; the
    # first such monomial in the sorted ball is x^(0,0), after (-1,0) and
    # (0,-1), which s_1 swaps
    report = {r["relation"]: r for r in check_daha_relations(2, 1, specialized)}
    assert report["quadratic T1"] == {"relation": "quadratic T1",
                                      "status": "fail", "witness": [0, 0]}
    assert report["quadratic T0"] == {"relation": "quadratic T0",
                                      "status": "pass"}
    assert not all(r["status"] == "pass" for r in report.values())


def test_relation_v_on_constant(rep2):
    d = rep2.domain
    one = rep2.ring.one()
    lhs = rep2.x(2, rep2.t(2, one, -1), -1) - rep2.t(2, rep2.x(2, one))
    assert lhs == one * (d.un_sqrt - d.un_sqrt ** (-1))


def test_three_parameter_degeneration_quick():
    domain = SpecializedDomain(Assignment.three_parameter())
    report = check_daha_relations(2, 1, domain)
    assert all(r["status"] == "pass" for r in report)


# -- the grid check of the D eigen equation -----------------------------------

def _orbit_sum(ring, mu):
    """m_mu: the sum of the distinct x^w(mu) over the signed permutations w."""
    exps = {tuple(s * k for s, k in zip(signs, perm))
            for perm in itertools.permutations(mu)
            for signs in itertools.product((1, -1), repeat=len(mu))}
    out = ring.zero()
    for e in exps:
        out = out + ring.monomial(e)
    return out


def _true_eigen(rep, poly, lam):
    return rep.koornwinder_d(poly) == poly * rep.d_eigenvalue(lam)


def test_parts_round_trip_specialized():
    for dom in (SpecializedDomain(), _specialized(RATIONAL),
                _specialized(HALF_Q)):
        eigenvalue = NoumiRepresentation(
            LaurentRing(2, dom)).d_eigenvalue((2, 1))
        for c in (dom.zero, dom.one, dom.a, dom.b, dom.c, dom.d, dom.q,
                  dom.t, dom.d_eps, -eigenvalue, Fraction(-7, 12)):
            num, den = dom.parts(c)
            assert type(num) is int and type(den) is int and den > 0
            assert Fraction(num, den) == c


def test_parts_round_trip_symbolic(symbolic):
    rng = random.Random(24)
    d = symbolic
    values = [d.zero, d.one, d.a, d.b, d.c, d.d, d.q, d.t, d.d_eps,
              -NoumiRepresentation(LaurentRing(2, d)).d_eigenvalue((2, 1))]
    values += [random_field_element(rng) for _ in range(30)]
    for c in values:
        num, den = d.parts(c)
        assert type(num) is LaurentScalar and type(den) is LaurentScalar
        assert den
        assert FieldElement(num.terms, den.terms) == c


@pytest.mark.parametrize(
    "n, weight, assignment",
    [(1, 6, None), (2, 4, None), (3, 3, None), (1, 5, RATIONAL),
     (2, 3, RATIONAL), (1, 5, HALF_Q), (2, 3, HALF_Q)],
    ids=["1-6", "2-4", "3-3", "1-5-rational", "2-3-rational", "1-5-half_q",
         "2-3-half_q"])
def test_d_eigen_holds_agrees_with_reference_specialized(n, weight,
                                                          assignment):
    family = KoornwinderFamily(n, _specialized(assignment))
    rep = family.rep
    for lam in weyl.partitions_up_to(n, weight):
        poly = family.symmetric(lam).poly
        assert rep.d_eigen_holds(poly, lam) == _true_eigen(rep, poly, lam)
        assert rep.d_eigen_holds(poly, lam)


@pytest.mark.parametrize("n, labels", [(1, [(0,), (1,), (2,), (3,)]),
                                       (2, [(1, 0)])])
def test_d_eigen_holds_agrees_with_reference_symbolic(symbolic, n, labels):
    family = KoornwinderFamily(n, symbolic)
    rep = family.rep
    for lam in labels:
        poly = family.symmetric(lam).poly
        assert rep.d_eigen_holds(poly, lam) == _true_eigen(rep, poly, lam)
        assert rep.d_eigen_holds(poly, lam)


def _assert_rejects_perturbations(family, labels):
    rep, ring = family.rep, family.ring
    for lam in labels:
        if not any(lam):
            continue    # constants are D-eigen for every added constant
        poly = family.symmetric(lam).poly
        d = lam[0]
        # every W0-invariant perturbation that keeps the degree bound d
        for mu in weyl.partitions_up_to(family.n, family.n * d):
            if mu[0] > d:
                continue
            bad = poly + _orbit_sum(ring, mu).scale(Fraction(3, 7))
            assert not rep.d_eigen_holds(bad, lam), (lam, mu)
        # the true polynomial against another eigenvalue
        other = (lam[0] + 1,) + lam[1:]
        assert rep.d_eigenvalue(other) != rep.d_eigenvalue(lam)
        assert not rep.d_eigen_holds(poly, other)


@pytest.mark.parametrize("n, weight", [(1, 4), (2, 3), (3, 2), (4, 1)])
def test_d_eigen_holds_rejects_perturbations(n, weight):
    _assert_rejects_perturbations(KoornwinderFamily(n, SpecializedDomain()),
                                  weyl.partitions_up_to(n, weight))


@pytest.mark.parametrize("lam", [(2,), (1, 0), (1, 1)])
def test_d_eigen_holds_rejects_perturbations_symbolic(symbolic, lam):
    _assert_rejects_perturbations(KoornwinderFamily(len(lam), symbolic), [lam])


@pytest.mark.parametrize("lam, assignment",
                         [((2, 0), None), ((2, 1, 0), None),
                          ((2, 0), RATIONAL), ((2, 1, 0), RATIONAL)],
                         ids=["lam0", "lam1", "lam0-rational",
                              "lam1-rational"])
def test_d_eigen_holds_rejects_a_tiny_perturbation(lam, assignment):
    # the constant term is W0-invariant on its own, so the perturbed
    # polynomial is still invariant with the same degree bound; D kills
    # constants, so its residual is -E(lam) * 10^-30, which only exact
    # arithmetic tells from zero
    family = KoornwinderFamily(len(lam), _specialized(assignment))
    rep = family.rep
    poly = family.symmetric(lam).poly
    bad = poly + family.ring.scalar(Fraction(1, 10 ** 30))
    assert rep.d_eigenvalue(lam)
    assert rep.d_eigen_holds(poly, lam)
    assert not rep.d_eigen_holds(bad, lam)


def test_d_eigen_holds_requires_invariance(rep2):
    with pytest.raises(ValueError):
        rep2.d_eigen_holds(rep2.ring.gen(1), (1, 0))


def test_grid_pool_is_increasing_and_pole_free():
    for q_sqrt in (Fraction(1, 2), 2, 3):
        dom = SpecializedDomain(Assignment.make((q_sqrt, 3, 5, 7, 11, 13)))
        for n in (1, 2, 3, 4):
            rep = NoumiRepresentation(LaurentRing(n, dom))
            for degree in (0, 1, 2, 3):
                pool = rep._grid_pool(degree)
                assert len(pool) == degree + n
                assert pool == sorted(set(pool)) and pool[0] >= 2
                for x in pool:
                    assert x.denominator == 1
                    assert dom.q * x * x != 1 and dom.q != x * x


def test_d_eigen_holds_grid_degree_is_read_from_the_input(monkeypatch):
    family = KoornwinderFamily(3, SpecializedDomain())
    rep = family.rep
    poly = family.symmetric((2, 1, 0)).poly
    seen = []
    grid_pool = rep._grid_pool
    monkeypatch.setattr(rep, "_grid_pool",
                        lambda degree: seen.append(degree) or grid_pool(degree))
    assert rep.d_eigen_holds(poly, (2, 1, 0))
    assert seen == [2]


@pytest.mark.parametrize("lam", [(4, 0), (2, 1, 0), (3, 0, 0), (1, 1, 0, 0)])
def test_d_eigen_holds_checks_the_increasing_points_of_one_pool(monkeypatch,
                                                                 lam):
    family = KoornwinderFamily(len(lam), SpecializedDomain())
    rep = family.rep
    poly = family.symmetric(lam).poly
    # the check evaluates f at each point, given as pairs (x, 1), and
    # then at its 2n q-shifts, x_i moved to q x_i and to x_i / q
    calls = []
    evaluate = noumi._evaluate

    def recording(num, den, point):
        calls.append([Fraction(a, b) for a, b in point])
        return evaluate(num, den, point)

    monkeypatch.setattr(noumi, "_evaluate", recording)
    assert rep.d_eigen_holds(poly, lam)
    n, d = len(lam), lam[0]
    q = family.domain.q
    pool = rep._grid_pool(d)
    groups = [calls[k:k + 2 * n + 1] for k in range(0, len(calls), 2 * n + 1)]
    points = {tuple(group[0]) for group in groups}
    assert len(groups) == len(points) == math.comb(d + n, n)
    for point, *shifts in groups:
        assert all(x < y for x, y in zip(point, point[1:]))
        assert set(point) <= set(pool)
        assert shifts == [point[:i] + [point[i] * q ** sign] + point[i + 1:]
                          for i in range(n) for sign in (1, -1)]
