from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koornwinder import weyl
from koornwinder.domains import Assignment, SpecializedDomain, SymbolicDomain
from koornwinder.laurent import LaurentRing
from koornwinder.noumi import NoumiRepresentation, monomial_exponents
from koornwinder.oracle import EigenOracle, kernel_basis, matrix_rank
from koornwinder.paramfield import FieldElement
from koornwinder.polynomials import KoornwinderFamily


def F(x):
    return Fraction(x)


def test_monomial_exponents():
    assert monomial_exponents(1, 0) == [(0,)]
    assert monomial_exponents(1, 2) == [(-2,), (-1,), (0,), (1,), (2,)]
    ball = monomial_exponents(2, 1)
    assert len(ball) == 5
    assert all(abs(a) + abs(b) <= 1 for a, b in ball)
    assert len(monomial_exponents(3, 3)) == 63


def test_matrix_rank():
    dom = SpecializedDomain()
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]], dom) == 1
    assert matrix_rank([[F(1), F(0)], [F(0), F(1)]], dom) == 2
    assert matrix_rank([[F(0), F(0)]], dom) == 0
    assert matrix_rank([], dom) == 0


def test_symbolic_rank_and_kernel():
    dom = SymbolicDomain()
    a, b, c = dom.q_sqrt, dom.t0_sqrt + dom.un_sqrt, dom.u0_sqrt - dom.one
    rows = [[a, b], [a * c, b * c]]
    assert matrix_rank(rows, dom) == 1
    basis = kernel_basis(rows, 2, dom)
    assert len(basis) == 1
    for row in rows:
        assert row[0] * basis[0][0] + row[1] * basis[0][1] == 0
    assert matrix_rank([[a, b], [c, a]], dom) == 2
    assert kernel_basis([[a, b], [c, a]], 2, dom) == []


def basis_rows(family, degree):
    """The change-of-basis matrix of basis_check, rows E_alpha."""
    exponents = monomial_exponents(family.n, degree)
    return [[family.nonsymmetric(alpha).poly.coefficient(e) for e in exponents]
            for alpha in exponents]


def test_literal_rank_agrees_with_the_triangular_certificate():
    family = KoornwinderFamily(1, SymbolicDomain())
    assert matrix_rank(basis_rows(family, 2), family.domain) == 5
    assert family.basis_check(2)["rank"] == 5


def test_symbolic_elimination_needs_no_canonical_form(monkeypatch):
    # equality is by cross multiplication, so the elimination never needs
    # the full gcd reduction of its entries
    def refuse(self):
        raise AssertionError("canonical() called")

    family = KoornwinderFamily(1, SymbolicDomain())
    chain = {alpha: family.nonsymmetric(alpha).poly
             for alpha in monomial_exponents(1, 3)}
    monkeypatch.setattr(FieldElement, "canonical", refuse)
    assert matrix_rank(basis_rows(family, 3), family.domain) == 7
    assert family.basis_check(3)["invertible"]
    oracle = family.eigen_oracle(2)
    for alpha in monomial_exponents(1, 2):
        assert oracle.joint_eigenvector(alpha) == chain[alpha]


def test_kernel_basis():
    dom = SpecializedDomain()
    rows = [[F(1), F(2), F(3)], [F(0), F(1), F(1)]]
    basis = kernel_basis(rows, 3, dom)
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, vec)) == 0
    # full-rank matrix: empty kernel
    assert kernel_basis([[F(1), F(0)], [F(0), F(1)]], 2, dom) == []


def test_joint_eigenvector_dimension_one(specialized):
    rep = NoumiRepresentation(LaurentRing(2, specialized))
    oracle = EigenOracle(rep, 2)
    vec = oracle.joint_eigenvector((1, -1))
    assert vec.coefficient((1, -1)) == 1
    assert vec.abs_degree() <= 2
    with pytest.raises(ValueError):
        oracle.joint_eigenvector((3, 0))


def test_oracle_refuses_a_negative_degree(specialized):
    rep = NoumiRepresentation(LaurentRing(2, specialized))
    with pytest.raises(ValueError):
        EigenOracle(rep, -1)


def test_oracle_rejects_label_outside_piece(specialized):
    rep = NoumiRepresentation(LaurentRing(1, specialized))
    oracle = EigenOracle(rep, 1)
    with pytest.raises(ValueError):
        oracle.joint_eigenvector((2,))


def test_oracle_refuses_an_operator_that_leaves_the_piece(monkeypatch,
                                                          specialized):
    rep = NoumiRepresentation(LaurentRing(1, specialized))
    monkeypatch.setattr(rep, "y", lambda i, f, sign=1: f * rep.ring.gen(1))
    with pytest.raises(AssertionError, match="left the filtration piece"):
        EigenOracle(rep, 1)


def _wrong_dimension(domain, monkeypatch):
    rep = NoumiRepresentation(LaurentRing(1, domain))
    spectrum = weyl.spectral_vector
    # q times the true eigenvalue is no eigenvalue of Y_1 on the piece
    monkeypatch.setattr(weyl, "spectral_vector", lambda alpha, dom: tuple(
        v * dom.q for v in spectrum(alpha, dom)))
    with pytest.raises(AssertionError, match="dimension 0, expected 1"):
        EigenOracle(rep, 1).joint_eigenvector((1,))
    # with Y_1 the identity, every vector of the piece is an eigenvector
    monkeypatch.setattr(rep, "y", lambda i, f, sign=1: f)
    monkeypatch.setattr(weyl, "spectral_vector",
                        lambda alpha, dom: (dom.one,) * len(alpha))
    with pytest.raises(AssertionError, match="dimension 3, expected 1"):
        EigenOracle(rep, 1).joint_eigenvector((1,))


def test_oracle_refuses_an_eigenspace_of_the_wrong_dimension(monkeypatch,
                                                            specialized):
    _wrong_dimension(specialized, monkeypatch)


def test_oracle_refuses_an_eigenspace_of_the_wrong_dimension_symbolic(
        monkeypatch, symbolic):
    _wrong_dimension(symbolic, monkeypatch)


def _without_its_label(domain, monkeypatch):
    rep = NoumiRepresentation(LaurentRing(1, domain))
    spectrum = weyl.spectral_vector
    # the eigenspace of the spectrum of (0,) is spanned by E_0 = 1
    monkeypatch.setattr(weyl, "spectral_vector",
                        lambda alpha, dom: spectrum((0,), dom))
    with pytest.raises(AssertionError, match="vanishes at its own label"):
        EigenOracle(rep, 1).joint_eigenvector((1,))


def test_oracle_refuses_an_eigenvector_without_its_label(monkeypatch,
                                                         specialized):
    _without_its_label(specialized, monkeypatch)


def test_oracle_refuses_an_eigenvector_without_its_label_symbolic(
        monkeypatch, symbolic):
    _without_its_label(symbolic, monkeypatch)


@pytest.mark.parametrize("mode", ["specialized", "symbolic"])
def test_oracle_refuses_a_label_of_the_wrong_length(request, mode):
    domain = request.getfixturevalue(mode)
    family = KoornwinderFamily(2, domain)
    oracle = family.eigen_oracle(2)
    for alpha in [(1,), (1, 0, 0)]:
        for solve in (oracle.joint_eigenvector, family.nonsymmetric):
            with pytest.raises(ValueError, match="label has wrong length"):
                solve(alpha)
    with pytest.raises(TypeError):
        oracle.joint_eigenvector((1.0, 0))


# -- the fraction-free elimination over a specialized domain -------------------

def _fraction_rank(rows, ncols):
    """Rank by plain Gaussian elimination on Fractions."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(ncols):
        pivot = next((k for k in range(rank, len(work)) if work[k][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for k in range(rank + 1, len(work)):
            factor = work[k][c] / work[rank][c]
            work[k] = [a - factor * b for a, b in zip(work[k], work[rank])]
        rank += 1
    return rank


@st.composite
def matrices(draw):
    """(ncols, rows): small matrices of ints and Fractions of both signs,
    with zero rows and rows that combine earlier ones mixed in."""
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-9, 9),
                      st.fractions(-9, 9, max_denominator=6))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        if not rows or draw(st.booleans()):
            rows.append([0] * ncols)
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(entry), draw(entry)
            rows.append([x * u + y * v for u, v in zip(a, b)])
    return ncols, draw(st.permutations(rows))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(matrices())
def test_integer_elimination_agrees_with_fraction_gauss(case):
    ncols, rows = case
    dom = SpecializedDomain()
    rank = _fraction_rank(rows, ncols)
    assert matrix_rank(rows, dom) == rank
    basis = kernel_basis(rows, ncols, dom)
    assert len(basis) == ncols - rank
    assert _fraction_rank(basis, ncols) == len(basis)
    for vec in basis:
        assert all(type(v) is int for v in vec)
        for row in rows:
            assert sum(a * v for a, v in zip(row, vec)) == 0


def test_integer_elimination_makes_no_fraction(monkeypatch):
    dom = SpecializedDomain()
    rows = [[2, -4, 6, 0], [0, 0, 0, 0], [-3, 6, 1, 5], [-1, 2, 7, 5]]

    def refuse(cls, *args, **kwargs):
        raise AssertionError("Fraction created")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert matrix_rank(rows, dom) == 2
    assert kernel_basis(rows, 4, dom) == [[2, 1, 0, 0], [3, 0, -1, 2]]


@pytest.mark.parametrize("values", ["-1/2,3,5/3,7,11,-13", "1/2,3,5,7,11,13"])
@pytest.mark.parametrize("n, degree", [(1, 4), (2, 3), (3, 2)])
def test_joint_eigenvector_equals_the_chain(values, n, degree):
    family = KoornwinderFamily(n, SpecializedDomain(Assignment.parse(values)))
    oracle = family.eigen_oracle(degree)
    # the common denominators D_i and the eigenvalue denominators are not 1
    assert any(d != 1 for d in oracle.dens)
    labels = monomial_exponents(n, degree)
    assert any(family.domain.split(s)[1] != 1 for alpha in labels
               for s in weyl.spectral_vector(alpha, family.domain))
    for alpha in labels:
        assert oracle.joint_eigenvector(alpha) == family.nonsymmetric(alpha).poly
