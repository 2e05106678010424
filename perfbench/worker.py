"""Run one workload in this process and print its raw figures as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace 0|1] [--setup-only]

The clock starts before ``koornwinder`` (and with it sympy) is imported,
so ``setup_s`` covers the import and building the engines.  Then whole
rounds of the workload's operations run, each round on fresh engines,
until the operations have taken ``--seconds`` in total.  With
``--trace 1`` there are exactly two rounds: one plain, one with every
public function of the engine wrapped in spans.  Outputs are checked
after the timed rounds: round one against ``reference``, later rounds
against round one.  The last line of stdout is the JSON result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _clear_library_caches():
    """Forget sympy's global cache, so no round reuses another's work."""
    from sympy.core.cache import clear_cache
    clear_cache()
    gc.collect()


def run_round(ops, recorder=None):
    """Time each operation; returns (seconds per op, results, failures)."""
    times, results, failures = [], [], {}
    for k, op in enumerate(ops):
        if op.prepare is not None:
            op.prepare()
        index = recorder.open("bench.op") if recorder is not None else None
        start = time.perf_counter()
        try:
            results.append(op.run())
        except Exception as exc:  # an engine failure counts, and is reported
            results.append(None)
            failures[k] = "%s: %s" % (type(exc).__name__, exc)
        times.append(time.perf_counter() - start)
        if index is not None:
            recorder.close(index)
    return times, results, failures


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import workloads
    import koornwinder
    if not os.path.abspath(koornwinder.__file__).startswith(SRC + os.sep):
        raise SystemExit("koornwinder was not imported from %s" % SRC)

    scratch = os.path.join(ROOT, ".perfbench", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    state = workload.setup()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(scratch, exist_ok=True)
    try:
        return _measure(args, workload, state, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, workload, state, setup_s):
    import tracing
    rounds, errors = [], []
    first = None            # (ops, results, failures) of round one
    first_digests = None
    recorder = None
    measured = 0.0
    while True:
        if rounds:
            state = workload.setup()
        ops = workload.operations(state)
        _clear_library_caches()
        traced = args.trace == 1 and len(rounds) == 1
        restore = None
        if traced:
            recorder = tracing.Recorder()
            restore = tracing.instrument(recorder)
        try:
            times, results, failures = run_round(ops, recorder if traced else None)
        finally:
            if restore is not None:
                restore()
        rounds.append({"times": times, "failed": sorted(failures)})
        measured += sum(times)
        digests = {k: op.digest(res) for k, (op, res) in
                   enumerate(zip(ops, results)) if k not in failures}
        if first is None:
            first, first_digests = (ops, results, failures), digests
        else:
            if sorted(failures) != sorted(first[2]):
                errors.append("round %d failed other operations than round 1"
                              % len(rounds))
            for k, d in digests.items():
                if first_digests.get(k) != d:
                    errors.append("%s: round %d differs from round 1"
                                  % (ops[k].name, len(rounds)))
        del results, digests
        if args.trace == 1:
            if len(rounds) == 2:
                break
        elif measured >= args.seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ops, results, failures = first
    for k, (op, res) in enumerate(zip(ops, results)):
        if k in failures:
            print("failed: %s: %s" % (op.name, failures[k]), file=sys.stderr)
            continue
        problem = op.check(res)
        if problem:
            errors.append("%s: %s" % (op.name, problem))
    for problem in errors:
        print("check: " + problem, file=sys.stderr)

    out = {
        "setup_s": setup_s,
        "rounds": rounds,
        "peak_rss_mib": peak_kib / 1024.0,
        "correct": not errors,
    }
    if recorder is not None:
        out["layers"] = tracing.layer_metrics(recorder)
        out["traced_wall_s"] = recorder.top_level_time()
        out["untraced_wall_s"] = sum(rounds[0]["times"])
        path = os.path.join(ROOT, ".perfbench", "spans-%s-%d.json"
                            % (args.workload, args.seed))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(recorder.to_json(), fh)
        out["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
