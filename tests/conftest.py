import tracemalloc

import pytest

from koornwinder.domains import SymbolicDomain, SpecializedDomain
from koornwinder.noumi import NoumiRepresentation
from koornwinder.paramfield import FieldElement


@pytest.fixture(scope="session")
def symbolic():
    return SymbolicDomain()


@pytest.fixture(scope="session")
def specialized():
    return SpecializedDomain()


@pytest.fixture
def broken_t1(monkeypatch):
    """Every NoumiRepresentation built in the test doubles the t_1^(1/2)
    that T_1 applies to s_1-invariant input, and nothing else."""
    build = NoumiRepresentation.__init__

    def broken(self, ring):
        build(self, ring)
        self._t_half[1] = self._t_half[1] * 2

    monkeypatch.setattr(NoumiRepresentation, "__init__", broken)


def random_monomial_exponents(rng, spread=2):
    return tuple(rng.randint(-spread, spread) for _ in range(6))


def random_field_element(rng, terms=3, spread=2):
    """A random nonzero-denominator field element with small support."""
    num = {}
    for _ in range(rng.randint(1, terms)):
        e = random_monomial_exponents(rng, spread)
        num[e] = num.get(e, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    # positive combination of distinct monomials: never zero
    den = {random_monomial_exponents(rng, spread): rng.randint(1, 3)}
    if rng.random() < 0.5:
        e = random_monomial_exponents(rng, spread)
        den[e] = den.get(e, 0) + rng.randint(1, 3)
    return FieldElement(num, den)


def random_laurent(ring, rng, radius=2, terms=4):
    """Random integer-coefficient Laurent polynomial of bounded weight."""
    out = ring.zero()
    for _ in range(terms):
        e = [0] * ring.n
        budget = rng.randint(0, radius)
        for _ in range(budget):
            i = rng.randrange(ring.n)
            e[i] += rng.choice((-1, 1))
        out = out + ring.monomial(e, ring.domain.from_int(rng.randint(-3, 3)))
    if not out:
        out = ring.one()
    return out


def peak_mib(compute):
    """compute() and the peak of the memory it allocated, in MiB."""
    tracemalloc.start()
    try:
        value = compute()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak / 2 ** 20
