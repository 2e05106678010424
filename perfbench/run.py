"""Benchmark of the exact Koornwinder engine, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in child processes of its own (``worker.py``), one
at a time and without threads, so peak memory belongs to that workload.
Set-up is measured in several fresh processes and reported as the
median.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``peak_rss_mib``); with ``--trace 1`` they are the per-layer
ones from a traced round, plus the tracing overhead.
``--workload all`` runs every workload in turn and prints one line each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("spec-sweep", "symbolic-chain", "symmetric", "verify")

#: extra fresh processes that only measure set-up, besides the measured run
SETUP_PROBES = 4
#: a run must end within this many seconds
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    # the engine must not read or write a cache the benchmark did not make
    env.pop("KOORNWINDER_CACHE_DIR", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, deadline):
    """Run worker.py with args; return its JSON result."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                              env=_child_env(), stdout=subprocess.PIPE,
                              timeout=left, check=False, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out: %s" % " ".join(args)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited %d: %s" % (proc.returncode,
                                                   " ".join(args)))
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, deadline):
    base = ["--workload", name, "--seed", str(seed)]
    raw = _worker(base + ["--seconds", str(seconds), "--trace", str(trace)],
                  deadline)
    rounds = raw["rounds"]
    attempted = sum(len(r["times"]) for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    if trace:
        metrics = {key: {"value": value, "unit": unit}
                   for key, (value, unit) in raw["layers"].items()}
        metrics["trace.wall_s"] = {"value": raw["traced_wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": raw["traced_wall_s"] - raw["untraced_wall_s"], "unit": "s"}
    else:
        setups = [raw["setup_s"]]
        for _ in range(SETUP_PROBES):
            setups.append(_worker(base + ["--setup-only"], deadline)["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(sum(r["times"])
                                                  for r in rounds), "unit": "s"},
            "peak_rss_mib": {"value": raw["peak_rss_mib"], "unit": "MiB"},
        }
    return {"correct": bool(raw["correct"]), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "koornwinder", "__init__.py")):
        print("perfbench: no engine sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  deadline)
        except BenchError as exc:
            print("perfbench: %s: %s" % (name, exc), file=sys.stderr)
            return 1
        ok = ok and result["correct"]
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
