"""Tests of the benchmark's own checks and span recorder.

    python3 -m pytest perfbench

Each reference check must accept the engine's output and reject the
same output with one coefficient perturbed; the span recorder's self
times must add up to the traced wall time.
"""

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from koornwinder import (Assignment, KoornwinderFamily,  # noqa: E402
                         LabeledPolynomial, SpecializedDomain, SymbolicDomain)
from koornwinder import laurent, noumi  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def params():
    return ref.Params(workloads.assignment_for(SEED))


def _family(n):
    return KoornwinderFamily(n, SpecializedDomain(
        Assignment.make(workloads.assignment_for(SEED))))


def _perturbed(terms, key=None):
    out = dict(terms)
    key = key if key is not None else min(out)
    out[key] = out[key] + Fraction(1, 7)
    return out


def test_lattice_count_matches_enumeration():
    for n in (1, 2, 3, 4):
        for r in range(5):
            assert ref.lattice_count(n, r) == len(ref.lattice_points(n, r))


def test_askey_wilson_rejects_perturbed(params):
    terms = _family(1).symmetric((3,)).poly.terms
    assert terms == ref.askey_wilson(3, params)
    assert _perturbed(terms) != ref.askey_wilson(3, params)


@pytest.mark.parametrize("alpha", [(1, -1), (-2, 0), (0, 1)])
def test_pointwise_y_rejects_perturbed(params, alpha):
    e = _family(2).nonsymmetric(alpha)
    spec = ref.spectral_vector(alpha, params)
    assert spec == e.spectrum
    rng = ref.seeded_rng(SEED, "test")

    def holds(terms):
        return ref.pointwise_check(
            rng, 2, lambda x: ref.y_eigen_residues(terms, spec, x, params))
    assert holds(e.poly.terms)
    for key in e.poly.terms:
        assert not holds(_perturbed(e.poly.terms, key))


def test_invariance_rejects_perturbed():
    terms = _family(2).symmetric((2, 1)).poly.terms
    assert ref.is_invariant(terms, 2)
    assert not ref.is_invariant(_perturbed(terms), 2)


def test_d_operator_rejects_perturbed(params):
    lam = (2, 1)
    terms = _family(2).symmetric(lam).poly.terms
    rng = ref.seeded_rng(SEED, "test")

    def holds(t):
        return ref.pointwise_check(
            rng, 2, lambda x: [ref.d_eigen_residue(t, lam, x, params)])
    assert holds(terms)
    assert not holds(_perturbed(terms))
    # a perturbation along a whole W0-orbit keeps invariance; D still sees it
    orbit = {e: terms[e] + (1 if sorted(map(abs, e)) == [0, 1] else 0)
             for e in terms}
    assert ref.is_invariant(orbit, 2)
    assert not holds(orbit)


def test_cross_mode_rejects_perturbed(tmp_path):
    workload = workloads.SymbolicChain(SEED, str(tmp_path))
    family = KoornwinderFamily(1, SymbolicDomain())
    ops = {op.name: op for op in workload.operations(family)}
    op = ops["E(2,)"]
    labeled, verified = op.run()
    assert op.check((labeled, verified)) is None
    terms = dict(labeled.poly.terms)
    key = min(terms)
    terms[key] = terms[key] + 1
    bad = LabeledPolynomial(labeled.label,
                            labeled.poly.ring.from_terms(terms),
                            labeled.spectrum)
    assert op.check((bad, verified)) is not None


def test_symmetric_workload_check_rejects_perturbed(tmp_path):
    workload = workloads.Symmetric(SEED, str(tmp_path))
    for lam in ((4,), (1, 1), (1, 1, 0)):
        terms = _family(len(lam)).symmetric(lam).poly.terms
        assert workload._check(lam, terms) is None
        assert workload._check(lam, _perturbed(terms)) is not None


def test_cli_report_checks_reject_wrong_counts(tmp_path):
    workload = workloads.Verify(SEED, str(tmp_path))
    basis = workload._basis(2, 1, [])
    good = {"n": 2, "degree": 1, "size": 5, "rank": 5, "invertible": True}
    assert basis.check(json.dumps(good)) is None
    assert basis.check(json.dumps(dict(good, rank=4))) is not None

    duality = workload._duality(1, 1, ["--symbolic"])
    stdout = duality.run()
    assert duality.check(stdout) is None
    report = json.loads(stdout)
    report["checks"].pop()
    assert duality.check(json.dumps(report)) is not None

    relations = workload._relations(2, 1, [])
    stdout = relations.run()
    assert relations.check(stdout) is None
    report = json.loads(stdout)
    report["results"].pop()
    assert relations.check(json.dumps(report)) is not None


def test_self_times_add_up_to_traced_wall():
    recorder = tracing.Recorder()
    original = laurent.exact_divide
    restore = tracing.instrument(recorder)
    try:
        assert noumi.exact_divide is not original
        family = _family(2)
        for alpha in ((1, -1), (0, 2)):
            with recorder.span("bench.op"):
                e = family.nonsymmetric(alpha)
                assert family.verify_spectrum(e)
    finally:
        restore()
    assert laurent.exact_divide is original and noumi.exact_divide is original
    own = recorder.self_times()
    assert min(own) > -1e-9
    assert sum(own) == pytest.approx(recorder.top_level_time(), rel=1e-9)
    metrics = tracing.layer_metrics(recorder)
    assert metrics["noumi.t_calls"][0] > 0
    assert metrics["laurent.divide_calls"][0] > 0
    assert metrics["paramfield.ops"][0] == 0
