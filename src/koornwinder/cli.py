"""Command-line front end.

Subcommands compute single polynomials, run the relation and duality
check suites, exercise the change-of-basis check, and specialize field
elements read as JSON.  Reports are emitted as UTF-8 JSON (default) or
plain text, and are deterministic for a fixed configuration and seed.
Exit codes: 0 on success / all checks passing, 1 on a failed check or
computation error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .domains import Assignment, make_domain
from .duality import DualityChecker
from .noumi import check_daha_relations, monomial_exponents
from .paramfield import FieldElement, UnluckySpecializationError
from .polynomials import KoornwinderFamily, NonGenericParametersError
from .weyl import is_partition, partitions_up_to


def _parse_label(text):
    """argparse type of --alpha and --lambda: comma-separated integers."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % text) from None


def _parse_assignment(text):
    """argparse type of --assignment: six comma-separated nonzero
    rationals."""
    try:
        return Assignment.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            "invalid assignment %r: %s" % (text, exc)) from None


def _add_shared(sub):
    """Flags of every command: the assignment, its re-draw seed, the format."""
    sub.add_argument("--assignment", type=_parse_assignment, default=None,
                     help="six comma-separated rationals for the parameter "
                          "square roots (specialized mode)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", dest="as_json", action="store_true", default=True)
    sub.add_argument("--text", dest="as_json", action="store_false")


def _add_common(sub):
    """Flags of every command that builds polynomials."""
    sub.add_argument("--n", type=int, required=True, help="number of variables")
    sub.add_argument("--mode", choices=("symbolic", "specialized"),
                     default="specialized")
    _add_shared(sub)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="koornwinder",
        description="Exact six-parameter Koornwinder polynomial toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("compute-e", help="nonsymmetric polynomial")
    sub.add_argument("--alpha", type=_parse_label, required=True,
                     help="comma-separated integer label")
    _add_common(sub)
    sub.add_argument("--cache-dir", type=str, default=None)
    sub.set_defaults(run=_cmd_compute)

    sub = commands.add_parser("compute-p", help="symmetric polynomial")
    sub.add_argument("--lambda", dest="lam", type=_parse_label, required=True,
                     help="comma-separated partition")
    _add_common(sub)
    sub.set_defaults(run=_cmd_compute)

    sub = commands.add_parser("basis-check",
                              help="rank of the change of basis to monomials")
    sub.add_argument("--degree", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(run=_cmd_basis_check)

    sub = commands.add_parser("check-relations",
                              help="verify the defining operator relations")
    sub.add_argument("--degree", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(run=_cmd_check_relations)

    sub = commands.add_parser("check-duality",
                              help="verify the duality identities")
    sub.add_argument("--max-weight", type=int, required=True)
    _add_common(sub)
    sub.add_argument("--symbolic", dest="mode", action="store_const",
                     const="symbolic", help="same as --mode symbolic")
    sub.set_defaults(run=_cmd_check_duality)

    sub = commands.add_parser("specialize",
                              help="evaluate a field element JSON at an "
                                   "assignment")
    sub.add_argument("--input", type=str, default=None,
                     help="path to a field element JSON (default: stdin)")
    _add_shared(sub)
    sub.set_defaults(run=_cmd_specialize)
    return parser


def _report(args, run, render, passed):
    """The one report path of every command: build the report with
    run(assignment), print it as compact JSON or, with --text, as
    render(report), and return the exit code, 0 if passed(report) and
    1 otherwise.

    An unlucky specialization or non-generic parameters under the default
    assignment re-draw it once, deterministically from --seed; an
    explicitly given assignment is never overridden.
    """
    try:
        report = run(args.assignment or Assignment.default())
    except (UnluckySpecializationError, NonGenericParametersError):
        if args.assignment:
            raise
        report = run(Assignment.from_seed(args.seed * 1000003 + 17))
    if args.as_json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(render(report))
    return 0 if passed(report) else 1


def _cmd_compute(args):
    labeled = None  # the polynomial of the report, for its text form

    def run(assignment):
        nonlocal labeled
        domain = make_domain(args.mode, assignment)
        if args.command == "compute-p":
            labeled = KoornwinderFamily(args.n, domain).symmetric(args.lam)
            verified = True  # construction is self-verifying
        else:
            family = KoornwinderFamily(args.n, domain,
                                       cache_dir=args.cache_dir)
            labeled = family.nonsymmetric(args.alpha)
            verified = family.verify_spectrum(labeled)
        return dict(labeled.to_json(), verified=verified)

    def render(report):
        return "\n".join([
            "label: " + ",".join(str(x) for x in labeled.label),
            "n: %d" % args.n,
            "polynomial: " + labeled.poly.text(),
            "spectrum: " + "; ".join(str(v) for v in labeled.spectrum),
            "verified: %s" % report["verified"],
        ])

    return _report(args, run, render, lambda r: r["verified"])


def _cmd_basis_check(args):
    def run(assignment):
        domain = make_domain(args.mode, assignment)
        return KoornwinderFamily(args.n, domain).basis_check(args.degree)

    def render(r):
        if "error" in r:
            return "basis n=%d degree=%d: error: %s" % (
                r["n"], r["degree"], r["error"])
        return "basis n=%d degree=%d: rank %d of %d (%s)" % (
            r["n"], r["degree"], r["rank"], r["size"],
            "invertible" if r["invertible"] else "SINGULAR")

    return _report(args, run, render, lambda r: r["invertible"])


def _cmd_check_relations(args):
    def run(assignment):
        domain = make_domain(args.mode, assignment)
        results = check_daha_relations(args.n, args.degree, domain)
        return {"n": args.n, "degree": args.degree, "mode": args.mode,
                "results": results,
                "all_pass": all(r["status"] == "pass" for r in results)}

    def render(r):
        lines = ["%s: %s" % (entry["relation"], entry["status"])
                 for entry in r["results"]]
        lines.append("all_pass: %s" % r["all_pass"])
        return "\n".join(lines)

    return _report(args, run, render, lambda r: r["all_pass"])


def _cmd_check_duality(args):
    def run(assignment):
        domain = make_domain(args.mode, assignment)
        checker = DualityChecker(KoornwinderFamily(args.n, domain))
        checks = []

        def add(kind, check, left, right):
            checks.append({"kind": kind, "left": list(left),
                           "right": list(right),
                           "status": "pass" if check(left, right) else "fail"})

        labels = monomial_exponents(args.n, args.max_weight)
        partitions = partitions_up_to(args.n, args.max_weight)
        for alpha in labels:
            for beta in labels:
                add("E", checker.check_duality_e, alpha, beta)
        for lam in partitions:
            for mu in partitions:
                add("P", checker.check_duality_p, lam, mu)
                add("ratio", checker.check_evaluation_ratio, lam, mu)
        return {"n": args.n, "max_weight": args.max_weight, "mode": args.mode,
                "checks": checks,
                "all_pass": all(c["status"] == "pass" for c in checks)}

    def render(r):
        fails = [c for c in r["checks"] if c["status"] != "pass"]
        lines = ["checks: %d" % len(r["checks"]),
                 "failures: %d" % len(fails)]
        for c in fails:
            lines.append("  %s %s | %s" % (c["kind"], c["left"], c["right"]))
        lines.append("all_pass: %s" % r["all_pass"])
        return "\n".join(lines)

    return _report(args, run, render, lambda r: r["all_pass"])


def _cmd_specialize(args):
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = json.load(sys.stdin)
    element = FieldElement.from_json_value(payload)

    def run(assignment):
        value = element.specialize(assignment.values())
        try:
            text = str(value)
        except ValueError:  # str() refuses an int past the digit limit
            raise ValueError("the value exceeds Python's %d-digit limit"
                             % sys.get_int_max_str_digits()) from None
        return {"value": text, "assignment": assignment.as_strings()}

    return _report(args, run, lambda r: r["value"], lambda r: True)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # a request over no variables or a negative weight would pass vacuously
    for name, low in (("n", 1), ("degree", 0), ("max_weight", 0)):
        if getattr(args, name, low) < low:
            parser.error("--%s must be at least %d"
                         % (name.replace("_", "-"), low))
    for name, flag in (("alpha", "--alpha"), ("lam", "--lambda")):
        label = getattr(args, name, None)
        if label is not None and len(label) != args.n:
            parser.error("%s needs %d entries, got %d"
                         % (flag, args.n, len(label)))
    if args.command == "compute-p" and not is_partition(args.lam):
        parser.error("--lambda must be weakly decreasing and nonnegative")
    try:
        return args.run(args)
    except (UnluckySpecializationError, NonGenericParametersError,
            ValueError, OSError, AssertionError) as exc:
        # AssertionError: a constructed object failed its own check
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
