"""The four workloads: their inputs, operations and output checks.

A workload is built from a seed.  ``setup()`` imports nothing new and
builds fresh engines; ``operations(state)`` lists the timed operations.
Each ``Op`` has a ``run`` (timed), an optional ``prepare`` (untimed, run
just before), a ``check`` that compares the result with a computation
made in ``reference`` (run once, outside the timed region) and a
``digest`` used to confirm that later rounds gave the same result.

The engine receives only the generated inputs: the assignment of the
six parameter square roots and the labels.  The seed picks the
assignment; seed 0 is the engine's default (2, 3, 5, 7, 11, 13).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from collections import Counter
from fractions import Fraction

import reference as ref

from koornwinder import (Assignment, EigenOracle, KoornwinderFamily,
                         SpecializedDomain, SymbolicDomain)
from koornwinder import cli

DEFAULT_SQRTS = (2, 3, 5, 7, 11, 13)


def assignment_for(seed):
    """Seed 0: the default primes.  Other seeds keep q^(1/2) = 2 and
    t^(1/2) = 3 and permute 5, 7, 11, 13 over t0, tn, u0, un, so every
    seed sees coefficients of the same size."""
    if seed == 0:
        return DEFAULT_SQRTS
    rest = [5, 7, 11, 13]
    random.Random(seed).shuffle(rest)
    return (2, 3) + tuple(rest)


class Op:
    __slots__ = ("name", "run", "check", "digest", "prepare")

    def __init__(self, name, run, check, digest=lambda out: out, prepare=None):
        self.name, self.run, self.check = name, run, check
        self.digest, self.prepare = digest, prepare


class OpFailed(Exception):
    """The engine reported failure (a CLI exit code other than 0)."""


def _poly_digest(result):
    return tuple(sorted(result.poly.terms.items()))


class _Base:
    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch          # a directory this run may write
        self.sqrts = assignment_for(seed)
        self.params = ref.Params(self.sqrts)
        self.rng = ref.seeded_rng(seed, self.name)

    def domain(self):
        return SpecializedDomain(Assignment.make(self.sqrts))

    def _y_ok(self, terms, alpha):
        spec = ref.spectral_vector(alpha, self.params)
        return ref.pointwise_check(
            self.rng, len(alpha),
            lambda x: ref.y_eigen_residues(terms, spec, x, self.params))

    def _check_nonsymmetric(self, alpha, terms, spectrum, verified=True):
        """Monic at its label, spectrum by the formula, Y-eigen pointwise."""
        if not verified:
            return "engine did not verify %r" % (alpha,)
        if terms.get(alpha) != 1:
            return "E%r is not monic" % (alpha,)
        if tuple(spectrum) != ref.spectral_vector(alpha, self.params):
            return "E%r has a wrong spectrum" % (alpha,)
        if not self._y_ok(terms, alpha):
            return "E%r fails a pointwise Y-eigen equation" % (alpha,)
        return None


class SpecSweep(_Base):
    """Specialized rank 3, every label of weight <= 3, built and verified."""

    name = "spec-sweep"
    N, WEIGHT = 3, 3

    def setup(self):
        return KoornwinderFamily(self.N, self.domain())

    def operations(self, family):
        ops = []
        for alpha in ref.lattice_points(self.N, self.WEIGHT):
            def run(alpha=alpha):
                e = family.nonsymmetric(alpha)
                return e, family.verify_spectrum(e)

            def check(out, alpha=alpha):
                e, verified = out
                return self._check_nonsymmetric(alpha, e.poly.terms,
                                                e.spectrum, verified)
            ops.append(Op("E%r" % (alpha,), run, check,
                          digest=lambda out: (_poly_digest(out[0]), out[1])))
        return ops


class SymbolicChain(_Base):
    """Symbolic rank 1, labels of weight <= 3, built and verified."""

    name = "symbolic-chain"
    N, WEIGHT = 1, 3

    def setup(self):
        return KoornwinderFamily(self.N, SymbolicDomain())

    def operations(self, family):
        ops = []
        for alpha in ref.lattice_points(self.N, self.WEIGHT):
            def run(alpha=alpha):
                e = family.nonsymmetric(alpha)
                return e, family.verify_spectrum(e)

            def check(out, alpha=alpha):
                e, verified = out
                if not verified:
                    return "engine did not verify %r" % (alpha,)
                p = self.params
                terms = {k: ref.specialize_num_den(c.num, c.den, p)
                         for k, c in e.poly.terms.items()}
                spectrum = [ref.specialize_num_den(v.num, v.den, p)
                            for v in e.spectrum]
                built = KoornwinderFamily(self.N, self.domain()).nonsymmetric(alpha)
                if terms != built.poly.terms:
                    return "E%r: symbolic and specialized builds differ" % (alpha,)
                return self._check_nonsymmetric(alpha, terms, spectrum)
            ops.append(Op("E%r" % (alpha,), run, check,
                          digest=lambda out: (json.dumps(out[0].to_json(),
                                                         sort_keys=True),
                                              out[1])))
        return ops


class Symmetric(_Base):
    """Specialized symmetric polynomials across ranks 1 to 4."""

    name = "symmetric"
    # (rank, max weight) sweeps, then one partition at rank 4: it sums
    # over all 384 words of W0 and checks D at n = 4.  (1, 1, 0, 0) takes
    # twice as long through the same code, and a round of it would not
    # fit the run length.
    SWEEPS = ((1, 8), (2, 4), (3, 3))
    SINGLES = ((1, 0, 0, 0),)

    def setup(self):
        return {n: KoornwinderFamily(n, self.domain()) for n in (1, 2, 3, 4)}

    def labels(self):
        out = [lam for n, w in self.SWEEPS for lam in ref.partitions(n, w)]
        return out + list(self.SINGLES)

    def operations(self, families):
        ops = []
        for lam in self.labels():
            family = families[len(lam)]
            ops.append(Op("P%r" % (lam,),
                          lambda lam=lam, f=family: f.symmetric(lam),
                          lambda out, lam=lam: self._check(lam, out.poly.terms),
                          digest=_poly_digest))
        return ops

    def _check(self, lam, terms):
        n, p = len(lam), self.params
        if n == 1:
            if terms != ref.askey_wilson(lam[0], p):
                return "P%r differs from the Askey-Wilson polynomial" % (lam,)
            return None
        if terms.get(lam) != 1:
            return "P%r is not monic" % (lam,)
        if not ref.is_invariant(terms, n):
            return "P%r is not W0-invariant" % (lam,)
        if not ref.pointwise_check(
                self.rng, n, lambda x: [ref.d_eigen_residue(terms, lam, x, p)]):
            return "P%r fails the D eigen equation pointwise" % (lam,)
        return None


def run_cli(argv):
    """Call the CLI in-process; returns stdout, raises OpFailed on exit != 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed("exit %d: %s" % (code, err.getvalue().strip()))
    return out.getvalue()


def relation_count(n):
    """Size of the defining-relation suite: quadratic relations for
    T_0..T_n, one braid relation per pair of generators with a finite
    bond, T_i/X_j commutations, n - 1 cross relations and the two
    quadratic relations for the U elements."""
    braids = 0 if n == 1 else (n + 1) * n // 2
    commute = sum(1 for i in range(n + 1) for j in range(1, n + 1)
                  if abs(i - j) > 1 or (i == n and j == n - 1))
    return (n + 1) + braids + commute + (n - 1) + 2


class Verify(_Base):
    """The checking side through the CLI, the oracle and the disk cache."""

    name = "verify"
    ORACLE_N, ORACLE_DEGREE = 3, 2
    # the disk-cache operations use fixed inputs, so that the one that
    # fails today fails on every seed
    CACHE_ARGS = ("compute-e", "--n", "3", "--alpha", "2,-1,0")

    def setup(self):
        family = KoornwinderFamily(self.ORACLE_N, self.domain())
        return {"family": family, "oracle": None}

    def operations(self, state):
        assign = ",".join(str(v) for v in self.sqrts)
        spec = ["--assignment", assign]
        ops = [
            self._basis(2, 4, spec),
            self._basis(1, 3, ["--mode", "symbolic"]),
            self._duality(2, 3, spec),
            self._duality(1, 1, ["--symbolic"]),
            self._relations(2, 2, spec),
            self._relations(1, 2, ["--mode", "symbolic"]),
        ]
        ops.extend(self._oracle_ops(state))
        ops.extend(self._cache_ops(state))
        return ops

    # -- CLI checks with counts computed here ------------------------------

    def _basis(self, n, degree, extra):
        argv = ["basis-check", "--n", str(n), "--degree", str(degree)] + extra

        def check(stdout):
            size = ref.lattice_count(n, degree)
            want = {"n": n, "degree": degree, "size": size, "rank": size,
                    "invertible": True}
            return None if json.loads(stdout) == want else \
                "basis-check n=%d: expected %r" % (n, want)
        return Op(" ".join(argv[:5]), lambda: run_cli(argv), check)

    def _duality(self, n, weight, extra):
        argv = ["check-duality", "--n", str(n), "--max-weight", str(weight)] + extra

        def check(stdout):
            report = json.loads(stdout)
            labels = ref.lattice_points(n, weight)
            parts = ref.partitions(n, weight)
            want = Counter()
            for kind, pool in (("E", labels), ("P", parts), ("ratio", parts)):
                for a in pool:
                    for b in pool:
                        want[(kind, a, b)] += 1
            got = Counter((c["kind"], tuple(c["left"]), tuple(c["right"]))
                          for c in report["checks"])
            if got != want or len(report["checks"]) != (
                    len(labels) ** 2 + 2 * len(parts) ** 2):
                return "check-duality n=%d: wrong set of checks" % n
            if not report["all_pass"] or any(c["status"] != "pass"
                                             for c in report["checks"]):
                return "check-duality n=%d: a check failed" % n
            return None
        return Op(" ".join(argv[:5]), lambda: run_cli(argv), check)

    def _relations(self, n, degree, extra):
        argv = ["check-relations", "--n", str(n), "--degree", str(degree)] + extra

        def check(stdout):
            report = json.loads(stdout)
            results = report["results"]
            if len(results) != relation_count(n):
                return "check-relations n=%d: %d relations, expected %d" % (
                    n, len(results), relation_count(n))
            if not report["all_pass"] or any(r["status"] != "pass"
                                             for r in results):
                return "check-relations n=%d: a relation failed" % n
            return None
        return Op(" ".join(argv[:5]), lambda: run_cli(argv), check)

    # -- the matrix oracle against the chain construction ----------------------

    def _oracle_ops(self, state):
        family, degree = state["family"], self.ORACLE_DEGREE

        def build():
            state["oracle"] = EigenOracle(family.rep, degree)
            return state["oracle"]

        def check_build(oracle):
            if len(oracle.basis) != ref.lattice_count(self.ORACLE_N, degree):
                return "oracle basis has the wrong size"
            return None
        ops = [Op("oracle build", build, check_build,
                  digest=lambda o: len(o.basis))]
        chain = []      # a second engine, built only when checking

        def chain_poly(alpha):
            if not chain:
                chain.append(KoornwinderFamily(self.ORACLE_N, self.domain()))
            return chain[0].nonsymmetric(alpha).poly

        for alpha in ref.lattice_points(self.ORACLE_N, degree):
            def solve(alpha=alpha):
                return state["oracle"].joint_eigenvector(alpha)

            def check(poly, alpha=alpha):
                if poly != chain_poly(alpha):
                    return "oracle and chain differ at %r" % (alpha,)
                return self._check_nonsymmetric(
                    alpha, poly.terms, ref.spectral_vector(alpha, self.params))
            ops.append(Op("oracle solve %r" % (alpha,), solve, check,
                          digest=lambda poly: tuple(sorted(poly.terms.items()))))
        return ops

    # -- the disk cache: cold, warm, and a truncated entry --------------------

    def _cache_ops(self, state):
        cold_dir = os.path.join(self.scratch, "cache-cold")
        bad_dir = os.path.join(self.scratch, "cache-truncated")
        for d in (cold_dir, bad_dir):
            shutil.rmtree(d, ignore_errors=True)
        argv = list(self.CACHE_ARGS)
        alpha = (2, -1, 0)
        default = ref.Params(DEFAULT_SQRTS)

        def check_cold(stdout):
            report = json.loads(stdout)
            if report["verified"] is not True or tuple(report["label"]) != alpha:
                return "compute-e: not verified"
            spectrum = [Fraction(v) for v in report["spectrum"]]
            if tuple(spectrum) != ref.spectral_vector(alpha, default):
                return "compute-e: wrong spectrum"
            terms = ref.terms_from_json(report)
            if terms.get(alpha) != 1 or not ref.pointwise_check(
                    self.rng, 3,
                    lambda x: ref.y_eigen_residues(terms, spectrum, x, default)):
                return "compute-e: fails a pointwise Y-eigen equation"
            state["cold"] = stdout
            return None

        def same_as_cold(stdout):
            return None if stdout == state.get("cold") else \
                "compute-e output differs from the cold run"

        def truncate():
            shutil.copytree(cold_dir, bad_dir)
            for top, _, names in os.walk(bad_dir):
                for name in names:
                    path = os.path.join(top, name)
                    os.truncate(path, os.path.getsize(path) // 2)

        return [
            Op("compute-e cold", lambda: run_cli(argv + ["--cache-dir", cold_dir]),
               check_cold),
            Op("compute-e warm", lambda: run_cli(argv + ["--cache-dir", cold_dir]),
               same_as_cold),
            Op("compute-e truncated cache",
               lambda: run_cli(argv + ["--cache-dir", bad_dir]),
               same_as_cold, prepare=truncate),
        ]


WORKLOADS = {w.name: w for w in (SpecSweep, SymbolicChain, Symmetric, Verify)}
