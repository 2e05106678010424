"""The rank-one symmetric polynomials against the Askey-Wilson closed form.

For n = 1 the monic P_(m) is the monic Askey-Wilson polynomial
4phi3(q^-m, abcd q^(m-1), a z, a/z; ab, ac, ad; q, q) in z = x_1
(Askey-Wilson, Mem. AMS 319, 1985; Koornwinder, Contemp. Math. 138,
1992), with a, b, c, d the domain's Askey-Wilson parameters.  The series
is summed here in the domain's own arithmetic, with no Hecke operator,
so it checks the chain, the symmetrizer and the normalization together.
"""

from fractions import Fraction

import pytest

from koornwinder.domains import Assignment, SpecializedDomain
from koornwinder.polynomials import KoornwinderFamily


def askey_wilson(ring, m):
    """The terminating 4phi3 as a Laurent polynomial in x_1, times
    D = prod_{j<m} (1 - ab q^j)(1 - ac q^j)(1 - ad q^j)(1 - q^(j+1)).

    D clears every denominator of the series, so the k-th term is
    q^k (q^-m, abcd q^(m-1); q)_k (a z, a/z; q)_k times the factors of D
    with j >= k, and all arithmetic stays free of division.
    """
    dom = ring.domain
    one = dom.one
    a, b, c, d = dom.a, dom.b, dom.c, dom.d
    x, x_inv = ring.gen(1), ring.gen(1, -1)

    def den_factor(j):
        return ((one - a * b * dom.q_pow(j)) * (one - a * c * dom.q_pow(j))
                * (one - a * d * dom.q_pow(j)) * (one - dom.q_pow(j + 1)))

    total = ring.zero()
    zpoly = ring.one()      # (a z, a/z; q)_k
    head = one              # q^k (q^-m, abcd q^(m-1); q)_k
    for k in range(m + 1):
        if k:
            shift = a * dom.q_pow(k - 1)
            zpoly = (zpoly * (ring.one() - x.scale(shift))
                     * (ring.one() - x_inv.scale(shift)))
            head = (head * dom.q * (one - dom.q_pow(k - 1 - m))
                    * (one - a * b * c * d * dom.q_pow(m + k - 2)))
        weight = head
        for j in range(k, m):
            weight = weight * den_factor(j)
        total = total + zpoly.scale(weight)
    return total


def assert_monic_askey_wilson(poly, m):
    """poly is the monic 4phi3 of degree m: poly times the x^m coefficient
    of the series equals the series."""
    series = askey_wilson(poly.ring, m)
    assert poly.coefficient((m,)) == 1
    assert poly.scale(series.coefficient((m,))) == series, m


@pytest.mark.parametrize("assignment", [
    Assignment.default(),
    Assignment.make((Fraction(1, 2), 3, Fraction(5, 3), 7,
                     Fraction(2, 11), 13)),
], ids=["primes", "fractions"])
def test_askey_wilson_specialized(assignment):
    family = KoornwinderFamily(1, SpecializedDomain(assignment))
    for m in range(9):
        assert_monic_askey_wilson(family.symmetric((m,)).poly, m)


def test_askey_wilson_symbolic(symbolic):
    family = KoornwinderFamily(1, symbolic)
    for m in range(5):
        assert_monic_askey_wilson(family.symmetric((m,)).poly, m)


def test_askey_wilson_rejects_a_perturbation(specialized):
    # the comparison sees a change in one coefficient
    family = KoornwinderFamily(1, specialized)
    poly = family.symmetric((3,)).poly
    bumped = poly + family.ring.monomial((1,), Fraction(1, 10**9))
    with pytest.raises(AssertionError):
        assert_monic_askey_wilson(bumped, 3)
