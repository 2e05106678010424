"""Acceptance suite: one test per exit criterion, exact in both modes.

Every check is zero-tolerance: symbolic assertions compare exact rational
functions, specialized assertions compare exact rationals.  Each test
prints one [PASS]/[FAIL] line (run pytest with -s to see them inline).
"""

import json
import random
import time

from koornwinder import weyl
from koornwinder.cli import main as cli_main
from koornwinder.domains import Assignment, SpecializedDomain, SymbolicDomain
from koornwinder.duality import (DualityChecker, functional_closed_form,
                                 functional_operator_form, star_pbw_triple)
from koornwinder.intertwine import (apply_intertwiner, check_intertwining,
                                    intertwiner_square_scalar)
from koornwinder.laurent import LaurentRing, apply_simple_reflection
from koornwinder.noumi import (NoumiRepresentation, check_daha_relations,
                               monomial_exponents)
from koornwinder.polynomials import KoornwinderFamily

from conftest import random_laurent


def _report(number, description, ok):
    print("[%s] criterion %s: %s" % ("PASS" if ok else "FAIL",
                                     number, description))
    assert ok, "criterion %s failed: %s" % (number, description)


def test_criterion_1_relation_suite():
    start = time.time()
    ok = True
    for n, degree in ((2, 2), (3, 1)):
        report = check_daha_relations(n, degree, SpecializedDomain())
        ok &= all(r["status"] == "pass" for r in report)
    symbolic = check_daha_relations(1, 1, SymbolicDomain())
    names = {r["relation"] for r in symbolic}
    # rank one has exactly the quadratic relations: (i) for both
    # generators plus the two extra quadratic generators
    ok &= names == {"quadratic T0", "quadratic T1",
                    "quadratic X1^-1 T1^-1 (un)", "quadratic U0 (u0)"}
    ok &= all(r["status"] == "pass" for r in symbolic)
    elapsed = time.time() - start
    ok &= elapsed < 60
    _report(1, "defining relations (specialized n=2 deg 2, n=3 deg 1; "
               "symbolic n=1) in %.1fs" % elapsed, ok)


def test_criterion_2_un_quadratic():
    rng = random.Random(41)
    ok = True
    for n in (1, 2, 3):
        rep = NoumiRepresentation(LaurentRing(n, SpecializedDomain()))
        gap = rep.domain.un_sqrt - rep.domain.un_sqrt ** (-1)
        for _ in range(30):
            f = random_laurent(rep.ring, rng, radius=2, terms=4)
            ok &= (rep.un(f) - rep.un(f, -1) == f * gap)
    _report(2, "U_n satisfies its quadratic relation on 30 random "
               "polynomials for n = 1, 2, 3", ok)


def _intertwining_block(rep, rng, trials):
    ok = True
    for _ in range(trials):
        f = random_laurent(rep.ring, rng, radius=3, terms=3)
        for _ in range(5):
            v = tuple(rng.randint(-2, 2) for _ in range(rep.n))
            k = rng.randint(-1, 1)
            for i in range(rep.n + 1):
                ok &= check_intertwining(rep, i, v, k, f)
    return ok


def _squares_block(family):
    # the square acts by a scalar on the whole eigenspace, so the raw
    # (unnormalized) eigenvector carries the same statement with far
    # smaller symbolic coefficients
    rep = family.rep
    ok = True
    for alpha in monomial_exponents(family.n, 3):
        vec = family.raw_eigenvector(alpha)
        spec = weyl.spectral_vector(alpha, family.domain)
        for i in range(family.n + 1):
            scalar = intertwiner_square_scalar(rep, i, spec)
            twice = apply_intertwiner(rep, i, apply_intertwiner(rep, i, vec))
            ok &= (twice == vec * scalar)
    return ok


def test_criterion_3_intertwining_and_squares():
    rng = random.Random(42)
    ok = True
    for n in (1, 2):
        family = KoornwinderFamily(n, SpecializedDomain())
        ok &= _intertwining_block(family.rep, rng, trials=4)
        ok &= _squares_block(family)
    sym = KoornwinderFamily(1, SymbolicDomain())
    ok &= _intertwining_block(sym.rep, rng, trials=2)
    ok &= _squares_block(sym)
    _report(3, "intertwining identity and squared-intertwiner scalars "
               "(specialized n <= 2, symbolic n = 1)", ok)


def _e_construction_block(family, max_weight):
    ok = True
    rep = family.rep
    for alpha in monomial_exponents(family.n, max_weight):
        labeled = family.nonsymmetric(alpha)
        weight = sum(abs(x) for x in alpha)
        # (a) eigen equations, on the raw chain state (scalar invariant)
        raw = family.raw_eigenvector(alpha)
        spec = weyl.spectral_vector(alpha, family.domain)
        ok &= all(rep.y(i, raw) == raw * spec[i - 1]
                  for i in range(1, family.n + 1))
        # (b) matrix oracle restricted to the weight filtration piece
        oracle = family.eigen_oracle(weight)
        ok &= labeled.poly == oracle.joint_eigenvector(alpha)
        ok &= labeled.poly.abs_degree() <= weight                  # (c)
    for degree in range(max_weight + 1):
        ok &= family.basis_check(degree)["invertible"]             # (d)
    return ok


def test_criterion_4_nonsymmetric_construction():
    ok = _e_construction_block(KoornwinderFamily(1, SymbolicDomain()), 4)
    ok &= _e_construction_block(KoornwinderFamily(2, SpecializedDomain()), 4)
    ok &= _e_construction_block(KoornwinderFamily(3, SpecializedDomain()), 3)
    _report(4, "nonsymmetric construction: eigen equations, oracle "
               "agreement, support bound, basis rank (n=1 symbolic deg 4; "
               "n=2 deg 4, n=3 deg 3 specialized)", ok)


def test_criterion_5_symmetric_construction():
    ok = True
    for n in (1, 2):
        family = KoornwinderFamily(n, SpecializedDomain())
        rep = family.rep
        for lam in weyl.partitions_up_to(n, 4):
            labeled = family.symmetric(lam)
            poly = labeled.poly
            ok &= poly.coefficient(lam) == 1
            for i in range(1, n + 1):
                ok &= apply_simple_reflection(i, poly) == poly
            ok &= rep.koornwinder_d(poly) == poly * rep.d_eigenvalue(lam)
    # the derived constant linking the operator to the Y-power sums,
    # symbolically for n = 1 and 2
    for n in (1, 2):
        dom = SymbolicDomain()
        rep = NoumiRepresentation(LaurentRing(n, dom))
        rho = weyl.spectral_vector((0,) * n, dom)
        for lam in weyl.partitions_up_to(n, 4):
            total = dom.zero
            for i in range(n):
                val = dom.q_pow(lam[i]) * rho[i]
                total = total + val + val ** (-1) - rho[i] - rho[i] ** (-1)
            ok &= rep.d_eigenvalue(lam) == dom.s * dom.t ** (n - 1) * total
    _report(5, "symmetric construction: invariance, monic normalization, "
               "difference-operator eigen equation (weights <= 4, n <= 2); "
               "derived eigenvalue identity symbolic n = 1, 2", ok)


def test_criterion_6_duality():
    start = time.time()
    ok = True
    sym = DualityChecker(KoornwinderFamily(1, SymbolicDomain()))
    labels1 = monomial_exponents(1, 2)
    for a in labels1:
        for b in labels1:
            ok &= sym.check_duality_e(a, b)
    for lam in weyl.partitions_up_to(1, 2):
        for mu in weyl.partitions_up_to(1, 2):
            ok &= sym.check_duality_p(lam, mu)
            ok &= sym.check_evaluation_ratio(lam, mu)
    paired = DualityChecker(KoornwinderFamily(2, SpecializedDomain()))
    labels2 = monomial_exponents(2, 3)
    for a in labels2:
        for b in labels2:
            ok &= paired.check_duality_e(a, b)
    for lam in weyl.partitions_up_to(2, 3):
        for mu in weyl.partitions_up_to(2, 3):
            ok &= paired.check_duality_p(lam, mu)
            ok &= paired.check_evaluation_ratio(lam, mu)
    elapsed = time.time() - start
    ok &= elapsed < 300
    _report(6, "duality identities for both families plus the evaluation "
               "ratio (symbolic n=1 weight 2; paired n=2 weight 3) "
               "in %.1fs" % elapsed, ok)


def test_criterion_7_functional_star():
    rng = random.Random(43)
    dom = SymbolicDomain()
    family = KoornwinderFamily(2, dom)
    words = [word for _, word in weyl.enumerate_W0(2)]
    ok = True
    for _ in range(50):
        alpha = (rng.randint(-2, 2), rng.randint(-2, 2))
        beta = (rng.randint(-2, 2), rng.randint(-2, 2))
        word = rng.choice(words)
        closed = functional_closed_form(dom, 2, alpha, word, beta)
        ok &= closed == functional_operator_form(family.rep, alpha, word, beta)
        sa, sw, sb = star_pbw_triple(alpha, word, beta)
        ok &= functional_closed_form(dom, 2, sa, sw, sb) == closed.star()
    _report(7, "evaluation functional: closed form agrees with the "
               "operator path and intertwines star on 50 random "
               "normal-form monomials", ok)


def test_criterion_8_three_parameter_degeneration():
    domain = SpecializedDomain(Assignment.three_parameter())
    ok = True
    for n, degree in ((2, 2), (3, 1)):
        report = check_daha_relations(n, degree, domain)
        ok &= all(r["status"] == "pass" for r in report)
    _report(8, "full relation suite under the three-parameter "
               "degeneration (u0 = un = 1, t0 = tn)", ok)


def test_criterion_9_cli_determinism(capsys):
    commands = [
        ("compute-e", "--n", "2", "--alpha", "1,-1", "--seed", "7"),
        ("compute-p", "--n", "2", "--lambda", "2,0", "--seed", "7"),
        ("check-relations", "--n", "1", "--degree", "1", "--seed", "7"),
        ("check-duality", "--n", "1", "--max-weight", "1", "--symbolic",
         "--seed", "7"),
    ]
    ok = True
    for argv in commands:
        code1 = cli_main(list(argv))
        first = capsys.readouterr().out
        code2 = cli_main(list(argv))
        second = capsys.readouterr().out
        ok &= (code1 == code2 == 0)
        ok &= first == second
        ok &= bool(json.loads(first))
    with capsys.disabled():
        _report(9, "CLI reports are byte-identical across repeated runs "
                   "with a fixed seed", ok)
