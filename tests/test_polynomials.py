import hashlib
import json
import math
from fractions import Fraction

import pytest

from koornwinder import paramfield, polynomials, weyl
from koornwinder.domains import Assignment, SpecializedDomain, SymbolicDomain
from koornwinder.intertwine import leading_scalar, spectral_intertwiner
from koornwinder.noumi import check_daha_relations, monomial_exponents
from koornwinder.oracle import matrix_rank
from koornwinder.polynomials import (KoornwinderFamily,
                                     NonGenericParametersError)


@pytest.fixture(scope="module")
def fam1(symbolic):
    return KoornwinderFamily(1, symbolic)


@pytest.fixture(scope="module")
def fam2(specialized):
    return KoornwinderFamily(2, specialized)


def test_origin_is_one(fam1, fam2):
    assert fam1.nonsymmetric((0,)).poly == fam1.ring.one()
    assert fam2.nonsymmetric((0, 0)).poly == fam2.ring.one()
    assert fam2.symmetric((0, 0)).poly == fam2.ring.one()


def test_every_entry_point_checks_the_label_length(fam2):
    for build in (fam2.nonsymmetric, fam2.raw_eigenvector, fam2.symmetric):
        for label in ((1,), (0, 1, 0)):
            with pytest.raises(ValueError, match="wrong length"):
                build(label)


def test_rank_one_minus_one_frozen(fam1):
    # frozen from the matrix oracle at the default prime assignment
    e = fam1.nonsymmetric((-1,))
    assert e.poly.coefficient((-1,)) == 1
    assert e.poly.support() == [(-1,), (0,)]
    c0 = e.poly.coefficient((0,))
    assert c0.specialize([2, 3, 5, 7, 11, 13]) == Fraction(259112, 233519)


def test_monic_normalization(fam2):
    for alpha in [(1, 0), (0, -1), (2, 1), (-1, 1)]:
        lab = fam2.nonsymmetric(alpha)
        assert lab.poly.coefficient(alpha) == 1


def test_eigen_property(fam1, fam2):
    for alpha in [(-1,), (1,), (2,), (-2,)]:
        assert fam1.verify_spectrum(fam1.nonsymmetric(alpha))
    for alpha in [(1, 0), (0, 1), (-1, 1), (2, -1)]:
        assert fam2.verify_spectrum(fam2.nonsymmetric(alpha))


def test_support_bound(fam2):
    for alpha in monomial_exponents(2, 2):
        weight = sum(abs(x) for x in alpha)
        assert fam2.nonsymmetric(alpha).poly.abs_degree() <= weight


def test_chain_equals_oracle(fam1, fam2):
    oracle1 = fam1.eigen_oracle(2)
    for alpha in [(-1,), (1,), (-2,), (2,)]:
        assert fam1.nonsymmetric(alpha).poly == oracle1.joint_eigenvector(alpha)
    oracle2 = fam2.eigen_oracle(2)
    for alpha in monomial_exponents(2, 2):
        assert fam2.nonsymmetric(alpha).poly == oracle2.joint_eigenvector(alpha)


def test_chain_independence(fam1, fam2):
    # a longer chain with extra moving steps reaches the same polynomial
    via_default = fam1.nonsymmetric((1,)).poly
    via_long = fam1.nonsymmetric_via_chain((0, 0, 0, 1), (1,))
    assert via_default == via_long
    std = fam2.nonsymmetric((1, 0)).poly
    alt = fam2.nonsymmetric_via_chain((0, 0, 0, 1, 2, 1), (1, 0))
    assert std == alt
    # the same chain word with literal steps (nonsymmetric_via_chain) and
    # spectral steps (nonsymmetric)
    for fam, weight in ((fam1, 3), (fam2, 2)):
        for alpha in monomial_exponents(fam.n, weight):
            literal = fam.nonsymmetric_via_chain(weyl.chain_to(alpha), alpha)
            assert literal == fam.nonsymmetric(alpha).poly, alpha


def test_basis_checks(fam1, fam2):
    report = fam1.basis_check(1)
    assert report == {"n": 1, "degree": 1, "size": 3, "rank": 3,
                      "invertible": True}
    assert fam1.basis_check(0)["invertible"]
    report = fam2.basis_check(1)
    assert report["size"] == 5 and report["rank"] == 5 and report["invertible"]


@pytest.fixture
def rank_calls(monkeypatch):
    """Sizes of the matrices basis_check sends to elimination."""
    calls = []

    def counting(rows, domain):
        calls.append(len(rows))
        return matrix_rank(rows, domain)

    monkeypatch.setattr(polynomials, "matrix_rank", counting)
    return calls


def _replace_entry(family, alpha, poly):
    """Make poly the chain state of alpha, the row basis_check ranks."""
    family._raw[alpha] = poly


def test_basis_check_takes_the_certificate(fam2, rank_calls):
    assert fam2.basis_check(2)["invertible"]
    assert rank_calls == []


def test_basis_check_takes_the_certificate_on_a_non_unit_diagonal(
        specialized, rank_calls):
    # a nonzero diagonal entry other than one still makes the triangular
    # matrix invertible
    family = KoornwinderFamily(1, specialized)
    _replace_entry(family, (1,), family.nonsymmetric((1,)).poly.scale(2))
    report = family.basis_check(1)
    assert rank_calls == []
    assert report["rank"] == 3 and report["invertible"]


def test_basis_check_falls_back_on_a_cycle(specialized, rank_calls):
    # E_(-1) replaced by the multiple of E_(1) that is one at x^-1: rows
    # 1 and -1 have each other in their supports, and are proportional
    family = KoornwinderFamily(1, specialized)
    e1 = family.nonsymmetric((1,)).poly
    _replace_entry(family, (-1,), e1 * e1.coefficient((-1,)) ** (-1))
    report = family.basis_check(1)
    assert rank_calls == [3]
    assert report == {"n": 1, "degree": 1, "size": 3, "rank": 2,
                      "invertible": False}


def test_symmetric_rank_one(fam1):
    d = fam1.domain
    p = fam1.symmetric((1,))
    assert p.poly.coefficient((1,)) == 1
    assert p.poly.coefficient((-1,)) == 1
    c0 = p.poly.coefficient((0,))
    assert c0.specialize([2, 3, 5, 7, 11, 13]) == Fraction(695512, 233519)
    # the symmetric polynomial is the eigen-solution of the rank-one
    # difference operator: re-derive the constant term directly
    ring = fam1.ring
    m = ring.gen(1) + ring.gen(1, -1)
    image = fam1.rep.koornwinder_d(m)
    assert c0 == image.coefficient((0,)) / fam1.rep.d_eigenvalue((1,))


def test_symmetric_rank_two(fam2):
    from koornwinder.laurent import apply_simple_reflection
    p = fam2.symmetric((1, 0))
    assert p.poly.coefficient((1, 0)) == 1
    for i in (1, 2):
        assert apply_simple_reflection(i, p.poly) == p.poly
    # the symmetrizer image decomposes the monomial orbit sum:
    # D(m) = d * m + (d * constant term of P) on span{m, 1}
    ring = fam2.ring
    m = (ring.gen(1) + ring.gen(2) + ring.gen(1, -1) + ring.gen(2, -1))
    image = fam2.rep.koornwinder_d(m)
    d_val = fam2.rep.d_eigenvalue((1, 0))
    gamma = p.poly.coefficient((0, 0))
    assert image == m * d_val + ring.scalar(d_val * gamma)


def test_symmetric_rank_two_symbolic(symbolic):
    # the construction self-verifies invariance and the eigen equation
    family = KoornwinderFamily(2, symbolic)
    p = family.symmetric((1, 0))
    assert p.poly.coefficient((1, 0)) == 1
    assert len(p.poly.terms) == 5


def test_symmetric_validates_partitions(fam2):
    with pytest.raises(ValueError):
        fam2.symmetric((1, 2))
    with pytest.raises(ValueError):
        fam2.symmetric((1, -1))


def test_nongeneric_assignment_raises():
    degenerate = SpecializedDomain(Assignment.make((1, 1, 1, 1, 1, 1)))
    family = KoornwinderFamily(1, degenerate)
    with pytest.raises(NonGenericParametersError):
        family.nonsymmetric((-1,))


def test_disk_cache_round_trip(tmp_path, specialized):
    fam = KoornwinderFamily(2, specialized, cache_dir=str(tmp_path))
    first = fam.nonsymmetric((1, -1))
    files = list(tmp_path.glob("*.json"))
    assert files
    # a fresh family with the same cache directory reads the stored value
    fam_again = KoornwinderFamily(2, specialized, cache_dir=str(tmp_path))
    second = fam_again.nonsymmetric((1, -1))
    assert first.poly == second.poly
    assert first.spectrum == second.spectrum
    # the loaded polynomial still passes the full eigen verification
    assert fam_again.verify_spectrum(second)


def test_disk_cache_entry_for_another_label_is_a_miss(tmp_path, specialized):
    fam = KoornwinderFamily(2, specialized, cache_dir=str(tmp_path))
    fam.nonsymmetric((2, 0))
    expected = fam.nonsymmetric((1, 0))
    # the entry of (2, 0) stored under the key of (1, 0)
    wrong = fam._cache_path((1, 0))
    with open(fam._cache_path((2, 0)), "rb") as src, open(wrong, "wb") as dst:
        dst.write(src.read())
    fresh = KoornwinderFamily(2, specialized, cache_dir=str(tmp_path))
    got = fresh.nonsymmetric((1, 0))
    assert got.label == (1, 0)
    assert got.poly == expected.poly
    # and the recomputed entry replaced the wrong one
    again = KoornwinderFamily(2, specialized, cache_dir=str(tmp_path))
    assert again._disk_read((1, 0)).poly == expected.poly


@pytest.mark.parametrize("name, alpha", [("fam1", (2,)), ("fam2", (1, 0))],
                         ids=["symbolic", "specialized"])
def test_verify_spectrum_rejects_wrong_data(request, name, alpha):
    from koornwinder.polynomials import LabeledPolynomial
    fam = request.getfixturevalue(name)
    good = fam.nonsymmetric(alpha)
    assert fam.verify_spectrum(good)
    e = min(e for e in good.poly.terms if e != alpha)
    outside = tuple(x + 5 for x in alpha)
    assert outside not in good.poly.terms
    wrong = [
        # one existing coefficient below the leading one doubled
        good.poly + fam.ring.monomial(e, good.poly.coefficient(e)),
        # that term dropped
        good.poly - fam.ring.monomial(e, good.poly.coefficient(e)),
        # a term added outside the support
        good.poly + fam.ring.monomial(outside),
        # every coefficient doubled: the same support, not monic
        good.poly.scale(2),
    ]
    assert wrong[0].terms.keys() == wrong[3].terms.keys() \
        == good.poly.terms.keys()
    for poly in wrong:
        tampered = LabeledPolynomial(label=alpha, poly=poly,
                                     spectrum=good.spectrum)
        assert not fam.verify_spectrum(tampered)
    spectrum = (good.spectrum[0] * fam.domain.q,) + tuple(good.spectrum[1:])
    wrong_spec = LabeledPolynomial(label=alpha, poly=good.poly,
                                   spectrum=spectrum)
    assert not fam.verify_spectrum(wrong_spec)


@pytest.mark.parametrize("name, alpha", [("fam1", (2,)), ("fam2", (2, -1))],
                         ids=["symbolic", "specialized"])
def test_verify_spectrum_reads_the_stored_numerators(request, name, alpha):
    # the monic multiple is confirmed on num and den as stored: one
    # numerator off by one, or the denominator doubled, must fail
    from koornwinder.laurent import LaurentPolynomial
    from koornwinder.polynomials import LabeledPolynomial
    fam = request.getfixturevalue(name)
    good = fam.nonsymmetric(alpha)
    assert fam.verify_spectrum(good)
    poly = good.poly
    wrong = [LaurentPolynomial(fam.ring, poly.num, 2 * poly.den)]
    for e in sorted(poly.num):
        num = dict(poly.num)
        num[e] = num[e] + 1
        wrong.append(LaurentPolynomial(fam.ring, num, poly.den))
    for bad in wrong:
        assert not fam.verify_spectrum(LabeledPolynomial(
            label=alpha, poly=bad, spectrum=good.spectrum))


@pytest.mark.parametrize("mode, alpha", [("symbolic", (1,)),
                                         ("specialized", (1, 0))])
def test_verify_spectrum_rejects_a_chain_state_that_is_no_eigenvector(
        request, mode, alpha):
    family = KoornwinderFamily(len(alpha), request.getfixturevalue(mode))
    ring = family.raw_rep.ring
    # a cached state with its label but no eigenvector: the monic output
    # is its multiple, so only the Y check can tell
    family._raw[alpha] = ring.monomial(alpha) + ring.one()
    labeled = family.nonsymmetric(alpha)
    assert labeled.poly == family.ring.monomial(alpha) + family.ring.one()
    assert not family.verify_spectrum(labeled)


def _field_walk(family, alpha):
    """The chain state of alpha, walked over the field rep family.rep."""
    point = (0,) * family.n
    f = family.ring.one()
    for i in weyl.chain_to(alpha):
        spec = weyl.spectral_vector(point, family.domain)
        f = spectral_intertwiner(family.rep, i, spec, f)
        point = weyl.affine_action(i, point)
    return f


@pytest.mark.parametrize("n, weight", [(1, 3), (2, 2)])
def test_laurent_chain_states_equal_the_field_walk(symbolic, n, weight):
    family = KoornwinderFamily(n, symbolic)
    assert family.raw_rep is not family.rep
    for alpha in monomial_exponents(n, weight):
        raw = family._chain_state(alpha)
        assert all(isinstance(c, paramfield.LaurentScalar)
                   for c in raw.terms.values())
        walk = _field_walk(family, alpha)
        converted = family.raw_eigenvector(alpha)
        assert converted.terms.keys() == walk.terms.keys()
        for e, c in converted.terms.items():
            assert c == walk.terms[e]


def test_symbolic_chain_and_y_checks_build_no_field_element(monkeypatch,
                                                            symbolic):
    alpha = (1, -1)
    labeled = KoornwinderFamily(2, symbolic).nonsymmetric(alpha)
    family = KoornwinderFamily(2, symbolic)

    def refuse(*args, **kwargs):
        raise AssertionError("a field element was built")
    with monkeypatch.context() as patch:
        patch.setattr(paramfield, "_normalize", refuse)
        raw = family._chain_state(alpha)
        spec = weyl.spectral_vector(alpha, family.raw_rep.domain)
        for i in (1, 2):
            assert family.raw_rep.y(i, raw) == raw * spec[i - 1]
    # and the final comparison never inverts the leading coefficient
    monkeypatch.setattr(paramfield.FieldElement, "inverse", refuse)
    assert family.verify_spectrum(labeled)


def test_specialized_chain_states_live_in_the_domain(specialized):
    family = KoornwinderFamily(2, specialized)
    assert specialized.raw_domain is specialized
    assert family.raw_rep is family.rep
    assert family.raw_eigenvector((1, -1)) is family._chain_state((1, -1))


# a rational and negative q^(1/2), so q = 1/4 is not an integer and the
# T_0 denominator x_1^2 - q has an integer form that is not monic
RATIONAL = Assignment.make(("-1/2", 3, "5/3", 7, 11, "-13"))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rational_assignment_passes_relations_and_y_checks(n):
    domain = SpecializedDomain(RATIONAL)
    assert all(r["status"] == "pass"
               for r in check_daha_relations(n, 2, domain))
    family = KoornwinderFamily(n, domain)
    for alpha in monomial_exponents(n, 2):
        labeled = family.nonsymmetric(alpha)
        assert labeled.poly.coefficient(alpha) == 1
        assert family.verify_spectrum(labeled)


def test_basis_check_refuses_a_negative_degree(fam2):
    # an empty basis would report itself invertible
    with pytest.raises(ValueError):
        fam2.basis_check(-1)


def test_label_length_validation(fam2):
    with pytest.raises(ValueError):
        fam2.nonsymmetric((1, 2, 3))


def test_labeled_polynomial_json(fam2):
    lab = fam2.nonsymmetric((0, 1))
    blob = lab.to_json()
    assert blob["label"] == [0, 1]
    assert blob["n"] == 2
    assert len(blob["spectrum"]) == 2
    exps = [tuple(t["exp"]) for t in blob["terms"]]
    assert exps == sorted(exps)


def test_symbolic_specializes_to_specialized(fam2):
    # cross-mode consistency: specializing the symbolic coefficients at
    # the assignment reproduces the specialized computation
    sym_family = KoornwinderFamily(2, SymbolicDomain())
    values = fam2.domain.assignment.values()
    for alpha in [(1, -1), (0, 2), (-1, 0)]:
        symbolic_poly = sym_family.nonsymmetric(alpha).poly
        specialized_poly = fam2.nonsymmetric(alpha).poly
        assert set(symbolic_poly.terms) == set(specialized_poly.terms)
        for e, c in symbolic_poly.terms.items():
            assert c.specialize(values) == specialized_poly.terms[e]


def test_raw_chain_prefix_reuse(fam2):
    # computing a deeper label reuses cached intermediate chain states
    fam2.nonsymmetric((2, 0))
    cached_points = set(fam2._raw)
    word = weyl.chain_to((2, 1))
    points = []
    v = (0, 0)
    for i in word:
        v = weyl.affine_action(i, v)
        points.append(v)
    assert any(p in cached_points for p in points[:-1])
    lab = fam2.nonsymmetric((2, 1))
    assert fam2.verify_spectrum(lab)


def test_each_chain_point_is_built_once(monkeypatch, specialized):
    # every chain walks back to the nearest cached point, so one spectral
    # step builds each point, whatever order the labels are asked in
    calls = []
    step = polynomials.spectral_intertwiner

    def counting_step(*args):
        calls.append(args[1])
        return step(*args)

    monkeypatch.setattr(polynomials, "spectral_intertwiner", counting_step)
    labels = sorted(monomial_exponents(3, 3))
    families = []
    for order in (labels, labels[::-1]):
        calls.clear()
        family = KoornwinderFamily(3, specialized)
        for alpha in order:
            family.raw_eigenvector(alpha)
        assert len(calls) == len(family._raw) == len(labels) - 1
        families.append(family)
    assert families[0]._raw == families[1]._raw


def test_symmetric_never_calls_the_reference_operator(monkeypatch, symbolic):
    def refuse(*args):
        raise RuntimeError("the reference operator was called")
    cases = [(KoornwinderFamily(n, SpecializedDomain()),
              [(2,) + (0,) * (n - 1), (1,) * n]) for n in (1, 2, 3, 4)]
    cases.append((KoornwinderFamily(2, symbolic), [(1, 0)]))
    for family, labels in cases:
        monkeypatch.setattr(family.rep, "koornwinder_d", refuse)
        monkeypatch.setattr(family.rep, "_d_table", refuse)
        for lam in labels:
            assert family.symmetric(lam).poly.coefficient(lam) == 1


def test_symmetric_rejects_an_image_that_is_not_invariant(monkeypatch,
                                                         specialized):
    family = KoornwinderFamily(2, specialized)
    x1 = family.ring.gen(1)
    monkeypatch.setattr(family.rep, "_symmetrizer_sum",
                        lambda f: (x1 + x1 * x1, specialized.one))
    with pytest.raises(ValueError, match="not W0-invariant"):
        family.symmetric((1, 0))


def test_symmetric_refuses_an_image_without_its_label(monkeypatch,
                                                     specialized):
    family = KoornwinderFamily(2, specialized)
    lam = (1, 0)
    image_of = family.raw_rep._symmetrizer_sum

    def without_label(f):
        image, norm = image_of(f)
        return image - image.ring.monomial(lam, image.coefficient(lam)), norm

    monkeypatch.setattr(family.raw_rep, "_symmetrizer_sum", without_label)
    with pytest.raises(NonGenericParametersError,
                       match=r"symmetrizer image has no x\^\(1, 0\) term"):
        family.symmetric(lam)


@pytest.mark.parametrize("q_sqrt", [Fraction(1, 2), 3])
def test_symmetric_where_small_integers_are_poles(q_sqrt):
    # q = 1/4 puts a zero of 1 - q x^2 at x = 2, and q = 9 one of
    # 1 - q x^-2 at x = 3: the grid must step over them
    dom = SpecializedDomain(Assignment.make((q_sqrt, 3, 5, 7, 11, 13)))
    for lam in [(2, 1), (1, 1, 0)]:
        family = KoornwinderFamily(len(lam), dom)
        rep = family.rep
        poly = family.symmetric(lam).poly
        assert rep.koornwinder_d(poly) == poly * rep.d_eigenvalue(lam)
        # and the check still rejects a wrong polynomial there
        assert not rep.d_eigen_holds(poly + family.ring.one(), lam)


def test_disk_cache_entry_under_the_unversioned_key_is_a_miss(tmp_path,
                                                              specialized):
    expected = KoornwinderFamily(2, specialized).nonsymmetric((1, 0))
    # an entry under the key used before keys carried a schema number,
    # with a coefficient that would be served as truth if it were read
    entry = expected.to_json()
    entry["terms"][0]["coeff"] = "12345/7"
    old_key = json.dumps({"n": 2, "alpha": [1, 0], "mode": "specialized",
                          "assignment": specialized.assignment.as_strings()},
                         sort_keys=True)
    digest = hashlib.sha256(old_key.encode()).hexdigest()
    (tmp_path / (digest + ".json")).write_text(json.dumps(entry))
    fam = KoornwinderFamily(2, specialized, cache_dir=str(tmp_path))
    assert fam._disk_read((1, 0)) is None
    assert fam.nonsymmetric((1, 0)).poly == expected.poly


# -- normalization by the chain's own factors (symbolic mode) -----------------

def _step_scalars(alpha, raw):
    """The leading scalar of every step of alpha's chain, as term dicts,
    from the spectral vectors alone: no chain state is built."""
    n, point, out = len(alpha), (0,) * len(alpha), []
    for i in weyl.chain_to(alpha):
        spec = weyl.spectral_vector(point, raw)
        out.append(leading_scalar(raw, n, i, spec).terms)
        point = weyl.affine_action(i, point)
    return out


def test_chain_factors_split_the_step_scalars_of_0_2_0(symbolic):
    raw = symbolic.raw_domain
    expected = []
    for scalar in _step_scalars((0, 2, 0), raw):
        parts = polynomials._binomial_factors(scalar)
        for v, c in parts:
            # 1 + c r^v with c = +-1 and v's first nonzero entry positive
            assert c in (1, -1) and next(x for x in v if x) > 0
        product = polynomials._product(parts)
        # the scalar is a unit, a +-1 monomial, times the product
        unit = polynomials._unit(scalar, product)
        assert unit and set(unit.values()) <= {1, -1}
        expected.append(parts)
    # every step has g = 2, 1 - z^2 = (1 - z)(1 + z), but the last, which
    # has g = 4 and adds Phi_4: 1 - z^4 = (1 - z)(1 + z)(1 + z^2)
    w = [parts[0][0] for parts in expected]
    assert expected[:-1] == [[(v, -1), (v, 1)] for v in w[:-1]]
    v = w[-1]
    assert expected[-1] == [(v, -1), (v, 1), (tuple(2 * x for x in v), 1)]
    assert polynomials.chain_factors((0, 2, 0), raw) == sum(expected, [])


def test_chain_factors_refuse_a_step_with_g_6(symbolic):
    # at n = 4, (0,0,3,0)'s last step scalar is m (1 - z^6), whose factor
    # Phi_3(z) = 1 + z + z^2 is no binomial: the label takes the gcd
    raw = symbolic.raw_domain
    scalars = _step_scalars((0, 0, 3, 0), raw)
    last = scalars[-1]
    assert len(last) == 2 and set(last.values()) <= {1, -1}
    (e1, _), (e2, _) = last.items()
    assert math.gcd(*(x - y for x, y in zip(e1, e2))) == 6
    assert polynomials._binomial_factors(last) is None
    assert all(polynomials._binomial_factors(s) for s in scalars[:-1])
    assert polynomials.chain_factors((0, 0, 3, 0), raw) is None


@pytest.fixture
def gcd_calls(monkeypatch):
    calls = []
    full_reduce = paramfield._full_reduce

    def counting(num, den):
        calls.append(1)
        return full_reduce(num, den)

    monkeypatch.setattr(paramfield, "_full_reduce", counting)
    return calls


def test_trial_division_replaces_the_gcd(symbolic, gcd_calls):
    family = KoornwinderFamily(1, symbolic)
    for alpha in [(3,), (-3,), (2,)]:
        family.nonsymmetric(alpha)
    assert not gcd_calls


def test_a_dropped_chain_factor_falls_back_to_the_gcd(monkeypatch, symbolic,
                                                      gcd_calls):
    expected = json.dumps(
        KoornwinderFamily(1, symbolic).nonsymmetric((3,)).to_json())
    assert not gcd_calls
    factors = polynomials.chain_factors

    def dropped(alpha, domain):
        return factors(alpha, domain)[1:]

    monkeypatch.setattr(polynomials, "chain_factors", dropped)
    lead = KoornwinderFamily(1, symbolic)._chain_state((3,)).num[(3,)]
    # without the factor, the product check fails ...
    assert polynomials._trial_cofactors(dropped((3,), symbolic.raw_domain),
                                        lead.terms) is None
    # ... so the coefficients take the gcd, to the same bytes
    got = KoornwinderFamily(1, symbolic).nonsymmetric((3,))
    assert gcd_calls
    assert json.dumps(got.to_json()) == expected


@pytest.fixture
def fallbacks(monkeypatch, symbolic):
    """The coefficients for which verify_spectrum fell back to
    product_equals."""
    calls = []
    same = type(symbolic).product_equals

    def counting(self, a, b, c):
        calls.append(a)
        return same(self, a, b, c)

    monkeypatch.setattr(type(symbolic), "product_equals", counting)
    return calls


def _with_coefficient(labeled, e, num, den):
    """labeled with its coefficient at e replaced by num/den, as given:
    not put in canonical form."""
    from koornwinder.laurent import LaurentPolynomial
    from koornwinder.polynomials import LabeledPolynomial
    c = object.__new__(paramfield.FieldElement)
    c.num, c.den = num, den
    poly = labeled.poly
    terms = dict(poly.num)
    terms[e] = c
    return LabeledPolynomial(
        label=labeled.label, spectrum=labeled.spectrum,
        poly=LaurentPolynomial(poly.ring, terms, poly.den))


def test_verify_spectrum_certifies_the_monic_multiple(symbolic, fallbacks):
    family = KoornwinderFamily(1, symbolic)
    good = family.nonsymmetric((3,))
    assert family.verify_spectrum(good)
    # every coefficient is certified by the chain's factors
    assert not fallbacks
    # the largest coefficient, which the trial division reduced
    e, c = max(good.poly.num.items(), key=lambda item: len(item[1].num))
    assert len(c.num) > paramfield.GCD_TERM_THRESHOLD and len(c.den) > 1
    top = max(c.num)
    off = dict(c.num)
    off[top] += 1 if off[top] != -1 else -1
    doubled = {k: 2 * v for k, v in c.den.items()}
    for num, den in [(off, c.den), (c.num, doubled)]:
        assert not family.verify_spectrum(_with_coefficient(good, e, num, den))
    # the same value over a denominator with a factor outside the chain's:
    # the certificate fails, and the cross multiplication accepts it
    extra = {(0,) * 6: 1, (1, 0, 0, 0, 0, 0): 1}
    same = _with_coefficient(good, e, paramfield._mul(c.num, extra),
                             paramfield._mul(c.den, extra))
    fallbacks.clear()
    assert family.verify_spectrum(same)
    assert len(fallbacks) == 1
