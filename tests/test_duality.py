import random

import pytest

from koornwinder import weyl
from koornwinder.duality import (DualityChecker, dual_spectral_point,
                                 functional_closed_form,
                                 functional_operator_form, star_pbw_triple,
                                 star_polynomial)
from koornwinder.laurent import LaurentRing
from koornwinder.polynomials import KoornwinderFamily


@pytest.fixture(scope="module")
def fam1(symbolic):
    return KoornwinderFamily(1, symbolic)


@pytest.fixture(scope="module")
def chk1(fam1):
    return DualityChecker(fam1)


@pytest.fixture(scope="module")
def chk2(specialized):
    return DualityChecker(KoornwinderFamily(2, specialized))


def test_star_polynomial(symbolic):
    ring = LaurentRing(2, symbolic)
    assert star_polynomial(ring.one()) == ring.one()
    f = ring.monomial((1, 0), symbolic.t0)
    assert star_polynomial(f) == ring.monomial((-1, 0), symbolic.un)
    rng = random.Random(0)
    for _ in range(10):
        g = ring.monomial((rng.randint(-2, 2), rng.randint(-2, 2)),
                          symbolic.c * symbolic.from_int(rng.randint(1, 5)))
        assert star_polynomial(star_polynomial(g)) == g


def test_star_polynomial_requires_symbolic(specialized):
    ring = LaurentRing(1, specialized)
    with pytest.raises(ValueError):
        star_polynomial(ring.one())


def test_rho_star_values(symbolic):
    d = symbolic
    assert dual_spectral_point(d, (0,)) == (d.s_dual,)
    assert dual_spectral_point(d, (0, 0)) == (d.s_dual * d.t, d.s_dual)
    assert dual_spectral_point(d, (2, 0), -1) == (
        (d.q_pow(2) * d.s_dual * d.t) ** (-1), d.s_dual ** (-1))
    # the starred base point is the star of the base point
    for n in (1, 2, 3):
        zero = (0,) * n
        starred = tuple(v.star() for v in weyl.spectral_vector(zero, d))
        assert starred == dual_spectral_point(d, zero)
    assert weyl.spectral_vector((2, 0), d) == (d.q_pow(2) * d.s * d.t, d.s)


def test_symmetric_inversion_invariance(fam1):
    # symmetric polynomials take the same value at a point and its inverse
    d = fam1.domain
    for lam in [(1,), (2,)]:
        p = fam1.symmetric(lam).poly
        assert (p.evaluate(dual_spectral_point(d, (0,), -1))
                == p.evaluate(dual_spectral_point(d, (0,))))


def test_pairing_base_cases(chk1):
    assert chk1.pairing_e((0,), (0,)) == chk1.family.domain.one
    assert chk1.pairing_p((0,), (0,)) == chk1.family.domain.one


def test_duality_e_symbolic(chk1):
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            assert chk1.check_duality_e((a,), (b,)), (a, b)


def test_duality_p_and_ratio_symbolic(chk1):
    for lam in ((0,), (1,), (2,)):
        for mu in ((0,), (1,), (2,)):
            assert chk1.check_duality_p(lam, mu)
            assert chk1.check_evaluation_ratio(lam, mu)


def test_duality_e_paired_specialization(chk2):
    labels = [(0, 0), (1, 0), (0, -1), (1, 1), (-2, 0), (1, -1)]
    for a in labels:
        for b in labels:
            assert chk2.check_duality_e(a, b), (a, b)


def test_duality_p_and_ratio_paired(chk2):
    parts = [(0, 0), (1, 0), (1, 1), (2, 0)]
    for lam in parts:
        for mu in parts:
            assert chk2.check_duality_p(lam, mu)
            assert chk2.check_evaluation_ratio(lam, mu)


def test_duality_e_rank_two_symbolic(symbolic):
    checker = DualityChecker(KoornwinderFamily(2, symbolic))
    for a, b in [((1, 0), (0, -1)), ((0, 0), (1, 1)), ((1, -1), (1, 0))]:
        assert checker.check_duality_e(a, b), (a, b)


def test_duality_rank_three_paired(specialized):
    checker = DualityChecker(KoornwinderFamily(3, specialized))
    labels = [(0, 0, 0), (1, 0, 0), (0, 0, -1), (1, -1, 0)]
    for a in labels:
        for b in labels:
            assert checker.check_duality_e(a, b), (a, b)
    parts = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
    for lam in parts:
        for mu in parts:
            assert checker.check_duality_p(lam, mu)
            assert checker.check_evaluation_ratio(lam, mu)


def test_star_family_wiring(specialized):
    fam = KoornwinderFamily(2, specialized)
    checker = DualityChecker(fam)
    assert (checker.star_family.domain.assignment
            == specialized.assignment.star())


def test_functional_base_case(fam1):
    d = fam1.domain
    assert functional_closed_form(d, 1, (0,), (), (0,)) == d.one
    assert functional_operator_form(fam1.rep, (0,), (), (0,)) == d.one


def test_functional_two_paths_and_star(symbolic):
    fam = KoornwinderFamily(2, symbolic)
    d = symbolic
    rng = random.Random(1)
    words = [word for _, word in weyl.enumerate_W0(2)]
    for _ in range(10):
        alpha = (rng.randint(-2, 2), rng.randint(-2, 2))
        beta = (rng.randint(-2, 2), rng.randint(-2, 2))
        word = rng.choice(words)
        closed = functional_closed_form(d, 2, alpha, word, beta)
        operator = functional_operator_form(fam.rep, alpha, word, beta)
        assert closed == operator
        sa, sw, sb = star_pbw_triple(alpha, word, beta)
        assert functional_closed_form(d, 2, sa, sw, sb) == closed.star()


def test_functional_star_paired(specialized):
    # star compatibility through paired assignments: the value of the
    # starred monomial at one assignment equals the value of the original
    # at the star-transformed assignment
    star_domain = specialized.star_domain()
    rng = random.Random(2)
    words = [word for _, word in weyl.enumerate_W0(2)]
    for _ in range(10):
        alpha = (rng.randint(-2, 2), rng.randint(-2, 2))
        beta = (rng.randint(-2, 2), rng.randint(-2, 2))
        word = rng.choice(words)
        sa, sw, sb = star_pbw_triple(alpha, word, beta)
        assert (functional_closed_form(specialized, 2, sa, sw, sb)
                == functional_closed_form(star_domain, 2, alpha, word, beta))


def test_star_values_take_each_spectral_point_once(monkeypatch, chk2):
    labels = [(0, 0), (1, 0), (0, 1), (1, -1)]
    for label in labels:
        for starred in (False, True):
            chk2._star_poly("nonsymmetric", label, starred)
    calls = []
    spectral_vector = weyl.spectral_vector

    def counting(alpha, domain):
        calls.append(alpha)
        return spectral_vector(alpha, domain)

    monkeypatch.setattr(weyl, "spectral_vector", counting)
    chk2._memo = {k: v for k, v in chk2._memo.items() if k[0] == "star"}
    for left in labels:
        for right in labels:
            chk2._star_value("nonsymmetric", left, right, False)
    assert sorted(calls) == sorted(labels)
