"""The symmetric polynomials against Koornwinder's orthogonality.

Koornwinder defined P_lambda by two properties: it is the orbit sum
m_lambda plus orbit sums of partitions below lambda in the dominance
order, and the P_lambda are orthogonal under his weight Delta
(Koornwinder, Contemp. Math. 138, 1992; Macdonald, Affine Hecke Algebras
and Orthogonal Polynomials, 2003, section 5.1).  The two together fix
P_lambda.  The weight is built here from its product formula with plain
Laurent polynomial products, with no Hecke operator and no q-difference
operator, so these tests check the chain, the symmetrizer and the
normalization without going through D.

Let s = q^(1/2), t = q^k and (a, b, c, d) = (q^k0, -q^k1, s q^k2,
-s q^k3), with k and every k_i nonnegative integers.  Then the weight
    Delta = prod_i (x_i^+-2; q)_inf
                   / (a x_i^+-1, b x_i^+-1, c x_i^+-1, d x_i^+-1; q)_inf
            * prod_{i<j} (x_i^+-1 x_j^+-1; q)_inf / (t x_i^+-1 x_j^+-1; q)_inf
is a Laurent polynomial, because (x^2; q)_inf = (x, -x, s x, -s x; q)_inf:
    Delta = prod_{i, +-} (x; q)_k0 (-x; q)_k1 (s x; q)_k2 (-s x; q)_k3
            at x = x_i^+-1, times prod_{i<j, +-, +-} (x_i^+-1 x_j^+-1; q)_k.
So orthogonality is a finite identity: the constant term of
P_lambda P_mu Delta is 0 for lambda != mu, and not 0 for lambda = mu.
In the engine's square roots, q_sqrt = s, t_sqrt = s^k,
t0_sqrt = s^(k2 + k3), tn_sqrt = s^(k0 + k1), u0_sqrt = s^(k2 - k3) and
un_sqrt = s^(k0 - k1).
"""

import itertools
from fractions import Fraction

import pytest

from koornwinder.domains import Assignment, SpecializedDomain
from koornwinder.laurent import LaurentRing
from koornwinder.polynomials import KoornwinderFamily
from koornwinder.weyl import partitions_up_to

# (s, k, k0, k1, k2, k3), named by the assignment of the six square roots
EXPONENTS = {"2,2,4,4,1,1": (2, 1, 1, 1, 1, 1),
             "3,9,3,27,3,3": (3, 2, 2, 1, 1, 0)}


def assignment(s, k, k0, k1, k2, k3):
    s = Fraction(s)
    return Assignment.make((s, s ** k, s ** (k2 + k3), s ** (k0 + k1),
                            s ** (k2 - k3), s ** (k0 - k1)))


def weight(ring, s, k, k0, k1, k2, k3):
    """Delta as a Laurent polynomial in ring, from the finite products."""
    n, q = ring.n, Fraction(s) ** 2

    def pochhammer(coeff, signs, m):
        """(coeff x^e; q)_m, e the exponent with signs[i] at each i."""
        e = [signs.get(i, 0) for i in range(n)]
        out = ring.one()
        for j in range(m):
            out = out * (ring.one() - ring.monomial(e, coeff * q ** j))
        return out

    delta = ring.one()
    for i in range(n):
        for sign in (1, -1):
            for coeff, m in ((1, k0), (-1, k1), (s, k2), (-s, k3)):
                delta = delta * pochhammer(coeff, {i: sign}, m)
    for pair in itertools.combinations(range(n), 2):
        for signs in itertools.product((1, -1), repeat=2):
            delta = delta * pochhammer(1, dict(zip(pair, signs)), k)
    return delta


def inner(f, g, delta):
    """The constant term of f g Delta."""
    return (f * g * delta).coefficient((0,) * f.ring.n)


def assert_triangular(poly, lam):
    """poly is W0-invariant and is m_lam plus orbit sums of partitions
    below lam in the dominance order."""
    n = len(lam)
    assert poly.coefficient(lam) == 1
    for e, c in poly.terms.items():
        mu = sorted(map(abs, e), reverse=True)
        assert all(sum(mu[:i]) <= sum(lam[:i]) for i in range(1, n + 1))
        for perm in itertools.permutations(e):
            for signs in itertools.product((1, -1), repeat=n):
                image = tuple(x * y for x, y in zip(signs, perm))
                assert poly.coefficient(image) == c


def assert_orthogonal(polys, delta):
    """Distinct polynomials of polys (label -> polynomial) are orthogonal
    under delta, and every norm is nonzero."""
    labels = sorted(polys)
    for lam, mu in itertools.combinations(labels, 2):
        assert inner(polys[lam], polys[mu], delta) == 0, (lam, mu)
    for lam in labels:
        assert inner(polys[lam], polys[lam], delta) != 0, lam


def specialized_family(name, n, size):
    """The weight and {lam: P_lam} for |lam| <= size at the named
    assignment, built in specialized mode."""
    exps = EXPONENTS[name]
    family = KoornwinderFamily(n, SpecializedDomain(assignment(*exps)))
    dom = family.domain
    s, k, k0, k1, k2, k3 = exps
    q = Fraction(s) ** 2
    # the weight's parameters are the engine's
    assert (dom.q, dom.t) == (q, q ** k)
    assert (dom.a, dom.b, dom.c, dom.d) == (q ** k0, -q ** k1, s * q ** k2,
                                            -s * q ** k3)
    polys = {lam: family.symmetric(lam).poly
             for lam in partitions_up_to(n, size)}
    return weight(family.ring, *exps), polys


@pytest.mark.parametrize("name, n, size", [
    ("2,2,4,4,1,1", 1, 5), ("2,2,4,4,1,1", 2, 3), ("2,2,4,4,1,1", 3, 2),
    ("3,9,3,27,3,3", 1, 5), ("3,9,3,27,3,3", 2, 3)])
def test_symmetric_polynomials_are_orthogonal(name, n, size):
    delta, polys = specialized_family(name, n, size)
    for lam, poly in polys.items():
        assert_triangular(poly, lam)
    assert_orthogonal(polys, delta)


@pytest.mark.parametrize("name, n, size", [
    ("2,2,4,4,1,1", 1, 5), ("2,2,4,4,1,1", 2, 3), ("3,9,3,27,3,3", 2, 3)])
def test_orthogonality_rejects_a_perturbation(name, n, size):
    # P_top + 1/7 keeps the triangular form, but its product with P_0 = 1
    # has constant term CT(P_top Delta) + CT(Delta) / 7 = CT(Delta) / 7
    delta, polys = specialized_family(name, n, size)
    top = max(polys)
    polys[top] = polys[top] + polys[top].ring.scalar(Fraction(1, 7))
    assert_triangular(polys[top], top)
    with pytest.raises(AssertionError):
        assert_orthogonal(polys, delta)


@pytest.mark.parametrize("n, size", [(1, 3), (2, 2)])
def test_symbolic_polynomials_specialize_to_orthogonal_ones(symbolic, n,
                                                             size):
    name = "2,2,4,4,1,1"
    exps = EXPONENTS[name]
    values = assignment(*exps).values()
    ring = LaurentRing(n, SpecializedDomain(assignment(*exps)))
    family = KoornwinderFamily(n, symbolic)
    polys = {}
    for lam in partitions_up_to(n, size):
        terms = family.symmetric(lam).poly.terms
        polys[lam] = ring.from_terms({e: c.specialize(values)
                                      for e, c in terms.items()})
        assert_triangular(polys[lam], lam)
    assert_orthogonal(polys, weight(ring, *exps))
