import random

import pytest

from koornwinder import weyl
from koornwinder.laurent import LaurentRing, apply_simple_reflection
from koornwinder.noumi import monomial_exponents
from koornwinder.weyl import (SignedPermutation, affine_action, braid_order,
                              chain_step, chain_to, enumerate_W0,
                              functional_action, pairing, spectral_vector,
                              reflect_spectral, w_alpha)


def test_partitions_up_to():
    assert weyl.partitions_up_to(2, 0) == [(0, 0)]
    assert weyl.partitions_up_to(2, 2) == [(0, 0), (1, 0), (1, 1), (2, 0)]
    # an empty list would let every check over it pass vacuously
    with pytest.raises(ValueError):
        weyl.partitions_up_to(2, -1)


def test_affine_action_examples():
    assert affine_action(0, (0, 0)) == (-1, 0)
    assert affine_action(2, (3, 5)) == (3, -5)
    assert affine_action(1, (3, 5)) == (5, 3)
    rng = random.Random(0)
    for _ in range(50):
        v = tuple(rng.randint(-4, 4) for _ in range(3))
        for i in range(4):
            assert affine_action(i, affine_action(i, v)) == v


def test_functional_action_examples():
    assert functional_action(0, (1, 0), 0) == ((-1, 0), -1)
    assert functional_action(0, (0, 0), 0) == ((0, 0), 0)
    assert functional_action(2, (1, 2), 3) == ((1, -2), 3)


def test_functional_action_moves_no_delta_under_finite_generators():
    for v in monomial_exponents(3, 2):
        for i in range(1, 4):
            for delta in (0, -2, 5):
                assert functional_action(i, v, delta) == (
                    affine_action(i, v), delta)


@pytest.mark.parametrize("n", [1, 3])
def test_reflection_index_out_of_range(specialized, n):
    v = tuple(range(1, n + 1))
    spec = spectral_vector(v, specialized)
    f = LaurentRing(n, specialized).gen(1)
    for i in (-1, n + 1):
        with pytest.raises(ValueError):
            affine_action(i, v)
        with pytest.raises(ValueError):
            functional_action(i, v, 0)
        with pytest.raises(ValueError):
            reflect_spectral(i, spec, specialized)
        with pytest.raises(ValueError):
            SignedPermutation.simple(i, n)
        with pytest.raises(ValueError):
            apply_simple_reflection(i, f)


def test_pairing_invariance():
    # <w(v + r d), u> = <v + r d, w^{-1} . u> for all generators
    rng = random.Random(1)
    for _ in range(60):
        n = rng.choice((1, 2, 3))
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        r = rng.randint(-2, 2)
        u = tuple(rng.randint(-3, 3) for _ in range(n))
        for i in range(n + 1):
            wv, wr = functional_action(i, v, r)
            # the affine generators are involutions, so w^{-1} = w
            assert pairing(wv, wr, u) == pairing(v, r, affine_action(i, u))


def test_affine_braid_relations():
    rng = random.Random(2)
    for n in (2, 3, 4):
        for i, j, order in weyl.coxeter_pairs(n):
            for _ in range(50):
                v = tuple(rng.randint(-5, 5) for _ in range(n))
                left = right = v
                for k in range(order):
                    left = affine_action(i if k % 2 == 0 else j, left)
                    right = affine_action(j if k % 2 == 0 else i, right)
                assert left == right, (n, i, j)


def test_braid_orders():
    assert braid_order(0, 1, 2) == 4
    assert braid_order(1, 2, 2) == 4
    assert braid_order(0, 2, 2) == 2
    assert braid_order(1, 2, 4) == 3
    assert braid_order(0, 1, 1) is None


def test_signed_permutation_group_axioms():
    rng = random.Random(3)
    n = 4
    gens = [SignedPermutation.simple(i, n) for i in range(1, n + 1)]
    for _ in range(40):
        w1 = SignedPermutation.identity(n)
        w2 = SignedPermutation.identity(n)
        for _ in range(6):
            w1 = w1 * rng.choice(gens)
            w2 = w2 * rng.choice(gens)
        v = tuple(rng.randint(-5, 5) for _ in range(n))
        assert (w1 * w2).act(v) == w1.act(w2.act(v))
        assert w1.inverse().act(w1.act(v)) == v
    for i in range(1, n):
        v = tuple(range(1, n + 1))
        assert SignedPermutation.simple(i, n).act(v) == affine_action(i, v)


def test_w_alpha_paper_example():
    alpha = (-2, 2, 1, -1, 0, 1, -1)
    w = w_alpha(alpha)
    assert w.signs == (-1, 1, 1, -1, 1, 1, -1)
    assert w.perm == (1, 0, 2, 5, 6, 3, 4)


def test_w_alpha_sorts_to_partition():
    assert w_alpha((0, 0, 0)) == SignedPermutation.identity(3)
    assert w_alpha((5, 3, 1)) == SignedPermutation.identity(3)
    rng = random.Random(4)
    for _ in range(200):
        n = rng.choice((1, 2, 3, 4, 5))
        alpha = tuple(rng.randint(-4, 4) for _ in range(n))
        sorted_alpha = w_alpha(alpha).inverse().act(alpha)
        assert list(sorted_alpha) == sorted((abs(x) for x in alpha), reverse=True)


def test_spectral_vector_base_cases(symbolic):
    d = symbolic
    assert spectral_vector((0, 0), d) == (d.s * d.t, d.s)
    assert spectral_vector((1, 0), d) == (d.q * d.s * d.t, d.s)
    assert spectral_vector((0,), d) == (d.s,)


def test_spectral_vector_reflection_equivariance(specialized):
    # the convention-pinning identity: the spectrum of s_i(alpha) is the
    # s_i image of the spectrum of alpha whenever s_i moves alpha
    rng = random.Random(5)
    count = 0
    while count < 200:
        n = rng.choice((1, 2, 3, 4))
        alpha = tuple(rng.randint(-4, 4) for _ in range(n))
        i = rng.randint(0, n)
        if affine_action(i, alpha) == alpha:
            continue
        count += 1
        lhs = spectral_vector(affine_action(i, alpha), specialized)
        rhs = reflect_spectral(i, spectral_vector(alpha, specialized), specialized)
        assert lhs == rhs, (alpha, i)


def test_spectral_vector_distinctness(specialized):
    from koornwinder.noumi import monomial_exponents
    labels = monomial_exponents(2, 3)
    spectra = [spectral_vector(a, specialized) for a in labels]
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            assert spectra[i] != spectra[j], (labels[i], labels[j])


def test_chain_to():
    from koornwinder.noumi import monomial_exponents
    assert chain_to((0, 0)) == ()
    assert chain_to((-1, 0)) == (0,)
    for n in (1, 2, 3):
        for alpha in monomial_exponents(n, 4):
            word = chain_to(alpha)
            assert sum(1 for i in word if i == 0) == sum(abs(x) for x in alpha)
            v = (0,) * n
            for i in word:
                nv = affine_action(i, v)
                assert nv != v, (alpha, word)
                v = nv
            assert v == alpha
            if not any(alpha):
                continue
            # the one-letter rule: the chain to s_i alpha is the chain to
            # alpha without its last letter i = chain_step(alpha)
            i = chain_step(alpha)
            back = affine_action(i, alpha)
            assert back != alpha
            assert word == chain_to(back) + (i,)


def test_enumerate_w0_counts():
    assert len(enumerate_W0(1)) == 2
    table = enumerate_W0(2)
    assert len(table) == 8
    assert max(len(word) for _, word in table) == 4
    assert len(enumerate_W0(3)) == 48
    with pytest.raises(ValueError):
        enumerate_W0(7)


def test_enumerate_w0_word_replay():
    for n in (1, 2, 3):
        generic = tuple(3 ** k for k in range(1, n + 1))
        seen_words = set()
        for w, word in enumerate_W0(n):
            assert word not in seen_words
            seen_words.add(word)
            assert weyl.apply_word_affine(word, generic) == w.act(generic)


def test_translation_words():
    rng = random.Random(7)
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            word = weyl.translation_word(i, n)
            for _ in range(10):
                v = tuple(rng.randint(-4, 4) for _ in range(n))
                moved = list(v)
                moved[i - 1] += 1
                assert weyl.apply_word_affine(word, v) == tuple(moved)
