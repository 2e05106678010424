import random

import pytest

from koornwinder import weyl
from koornwinder.domains import make_domain
from koornwinder.intertwine import (apply_intertwiner, check_intertwining,
                                    intertwiner_square_scalar,
                                    spectral_intertwiner, y_exponential)
from koornwinder.laurent import LaurentRing
from koornwinder.noumi import NoumiRepresentation, monomial_exponents

from conftest import random_laurent


@pytest.fixture(scope="module")
def rep1(symbolic):
    return NoumiRepresentation(LaurentRing(1, symbolic))


@pytest.fixture(scope="module")
def rep2(specialized):
    return NoumiRepresentation(LaurentRing(2, specialized))


def _eigenspace_member(rep, alpha, f):
    spec = weyl.spectral_vector(alpha, rep.domain)
    return all(rep.y(i, f) == f * spec[i - 1] for i in range(1, rep.n + 1))


def test_intertwiner_moves_eigenspaces(rep2):
    # S_0 applied to the constants lands in the eigenspace of (-1, 0)
    g = apply_intertwiner(rep2, 0, rep2.ring.one())
    assert g
    assert _eigenspace_member(rep2, (-1, 0), g)
    # continue along a chain: each step lands where it should
    alpha = (-1, 0)
    f = g
    for i in (1, 2, 1):
        f = apply_intertwiner(rep2, i, f)
        alpha = weyl.affine_action(i, alpha)
        assert f
        assert _eigenspace_member(rep2, alpha, f), (i, alpha)


def test_square_scalar_matches_double_application_rank_one(rep1):
    one = rep1.ring.one()
    f = apply_intertwiner(rep1, 0, one)  # eigenvector for (-1,)
    for i, alpha, vec in ((0, (0,), one), (1, (-1,), f), (0, (1,), None)):
        if vec is None:
            vec = apply_intertwiner(rep1, 1, f)
        scalar = intertwiner_square_scalar(
            rep1, i, weyl.spectral_vector(alpha, rep1.domain))
        assert apply_intertwiner(rep1, i, apply_intertwiner(rep1, i, vec)) == vec * scalar


def test_square_scalar_vanishes_on_fixed_points(rep2):
    # s_1 fixes the origin, so the squared scalar degenerates to zero
    one = rep2.ring.one()
    scalar = intertwiner_square_scalar(
        rep2, 1, weyl.spectral_vector((0, 0), rep2.domain))
    assert not scalar
    assert not apply_intertwiner(rep2, 1, one)


def test_square_scalar_closed_form_at_base_point(rep2):
    # direct expansion of the i=n case at the base spectrum
    d = rep2.domain
    rho = weyl.spectral_vector((0, 0), d)
    value = intertwiner_square_scalar(rep2, 2, rho)
    s = d.s
    expected = (d.tn * (d.one - d.a_eps * s) * (d.one - d.b_eps * s)
                * (d.one - d.a_eps / s) * (d.one - d.b_eps / s))
    assert value == expected
    assert not value  # a_eps * s == 1 makes the first factor vanish


def test_square_scalar_nonzero_along_chains(rep2):
    rng = random.Random(0)
    for _ in range(20):
        alpha = tuple(rng.randint(-2, 2) for _ in range(2))
        word = weyl.chain_to(alpha)
        v = (0, 0)
        for i in word:
            scalar = intertwiner_square_scalar(
                rep2, i, weyl.spectral_vector(v, rep2.domain))
            assert scalar, (alpha, v, i)
            v = weyl.affine_action(i, v)


def test_intertwining_identity_specialized(rep2):
    # 20 random affine exponents against 10 random polynomials
    rng = random.Random(1)
    exponents = []
    while len(exponents) < 20:
        v = (rng.randint(-2, 2), rng.randint(-2, 2))
        if abs(v[0]) + abs(v[1]) <= 2:
            exponents.append((v, rng.randint(-1, 1)))
    polys = [random_laurent(rep2.ring, rng, radius=3, terms=3)
             for _ in range(10)]
    for v, k in exponents:
        for f in polys:
            for i in (0, 1, 2):
                assert check_intertwining(rep2, i, v, k, f), (v, k, i)


def test_intertwining_identity_symbolic(rep1):
    rng = random.Random(2)
    for _ in range(3):
        f = random_laurent(rep1.ring, rng, radius=2)
        for v in ((1,), (-1,), (2,)):
            for k in (-1, 0, 1):
                for i in (0, 1):
                    assert check_intertwining(rep1, i, v, k, f), (v, k, i)


def test_square_scalar_rank_three(specialized):
    # double application on constructed eigenvectors, n = 3
    from koornwinder.polynomials import KoornwinderFamily
    from koornwinder.noumi import monomial_exponents
    family = KoornwinderFamily(3, specialized)
    rep = family.rep
    for alpha in monomial_exponents(3, 2):
        vec = family.raw_eigenvector(alpha)
        spec = weyl.spectral_vector(alpha, specialized)
        for i in range(4):
            scalar = intertwiner_square_scalar(rep, i, spec)
            twice = apply_intertwiner(rep, i, apply_intertwiner(rep, i, vec))
            assert twice == vec * scalar, (alpha, i)


@pytest.mark.parametrize("mode, n, weight", [
    ("specialized", 1, 4), ("specialized", 2, 3), ("specialized", 3, 2),
    ("symbolic", 1, 3), ("symbolic", 2, 1)])
def test_spectral_step_equals_literal_commutator(mode, n, weight):
    # joint eigenvectors from literal chains, times a random scalar; the
    # spectral form of every S_i must agree with the commutator, and both
    # vanish exactly where s_i fixes the point (S_1 and S_2 on 1 at n = 2)
    rep = NoumiRepresentation(LaurentRing(n, make_domain(mode)))
    dom = rep.domain
    rng = random.Random(n)
    scalars = (dom.one, dom.q_sqrt, dom.t0 - dom.u0, dom.from_int(-3))
    for alpha in monomial_exponents(n, weight):
        f = rep.ring.one()
        for i in weyl.chain_to(alpha):
            f = apply_intertwiner(rep, i, f)
        f = f * rng.choice(scalars)
        spec = weyl.spectral_vector(alpha, dom)
        for i in range(n + 1):
            literal = apply_intertwiner(rep, i, f)
            assert spectral_intertwiner(rep, i, spec, f) == literal, (alpha, i)
            fixed = weyl.affine_action(i, alpha) == alpha
            assert (not literal) == fixed, (alpha, i)


def test_y_exponential_sign_convention(rep1):
    # Y^(0 + 1*d) multiplies by q, mirroring x^(0 + 1*d) = q^{-1}
    one = rep1.ring.one()
    assert y_exponential(rep1, (0,), 1, one) == one * rep1.domain.q
    assert rep1.ring.exp_monomial((0,), 1) == rep1.ring.scalar(rep1.domain.q_pow(-1))


def test_intertwiner_index_validation(rep2):
    with pytest.raises(ValueError):
        apply_intertwiner(rep2, 5, rep2.ring.one())
    with pytest.raises(ValueError):
        spectral_intertwiner(rep2, 3, (rep2.domain.one,) * 2, rep2.ring.one())
    with pytest.raises(ValueError):
        intertwiner_square_scalar(rep2, -1, (rep2.domain.one, rep2.domain.one))
