"""One workload process: set up, warm up, then run whole rounds for a time.

Started by run.py, which sets the BLAS thread variables and PYTHONPATH
before this process loads numpy.  It prints ``ready`` once set-up and
the untimed warm-up operation are done, then (unless ``--setup-only``)
one JSON line with the operation counts and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-batch", "rate-suprema", "stepping")
# On a shared host the same loop runs at full speed or about 1.8x
# slower, switching on every time scale from 50 us to minutes.  A run's
# mean follows the share of slow time smoothly; a median or a minimum
# jumps when that share crosses a threshold.  So each operation's time in
# a run is its mean over at least MIN_ROUNDS repetitions, and every time
# metric is built from those per-operation means.
MIN_ROUNDS = 4
TAIL_Q = 0.90  # percentile of the per-operation mean times behind op_tail_s


def percentile(values, q):
    """Linear interpolation between order statistics at (N-1) q."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def import_seconds(repeats=5):
    """Median of (fresh ``import sipkit.cli``) minus (bare interpreter start)."""
    bare, full = [], []
    for _ in range(repeats):
        for code, into in (("pass", bare), ("import sipkit.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            into.append(time.perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import tracer
    import workloads

    workdir = HERE / "work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir, tracer, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir, tracer, workloads):
    library = args.workload != "cli-batch"
    traced = bool(args.trace)
    spans = tracer.Tracer().install() if traced and library else None
    totals = spans.totals if spans else tracer.empty_totals()
    ops = workloads.build(args.workload, args.seed, workdir, traced, totals)

    warm = ops[0]
    warm_digest = warm.digest(warm.call())
    print("ready", flush=True)
    if args.setup_only:
        return 0

    problems = [f"{warm.name} (warm-up): {p}" for p in warm.check(warm_digest)]
    if spans:
        spans.reset()
    else:
        totals.update(tracer.empty_totals())
    times = [[] for _ in ops]  # each operation's wall times, one per round
    failures = []
    spent, rounds = 0.0, 0
    clock = time.perf_counter
    while spent < args.seconds or rounds < MIN_ROUNDS:
        for op, op_times in zip(ops, times):
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                spent += clock() - t0
                failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            dt = clock() - t0
            spent += dt
            op_times.append(dt)
            problems += [f"{op.name}: {p}" for p in op.check(op.digest(out))]
        rounds += 1

    for line in (problems + failures)[:20]:
        print(line, file=sys.stderr)
    op_mean_s = [(op.name, sum(ts) / len(ts)) for op, ts in zip(ops, times) if ts]
    means = [m for _, m in op_mean_s]
    result = {
        "correct": not problems,
        "attempted": rounds * len(ops),
        "failed": len(failures),
        "rounds": rounds,
        "op_mean_s": op_mean_s,
        "env": environment(),
    }
    if traced:
        import_s = import_seconds()
        result["metrics"] = tracer.layer_metrics(totals, rounds, spent, import_s)
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF if library else resource.RUSAGE_CHILDREN)
        result["metrics"] = {
            "ops_per_s": {"value": len(means) / sum(means), "unit": "1/s"},
            "op_p50_s": {"value": percentile(means, 0.5), "unit": "s"},
            "op_tail_s": {"value": percentile(means, TAIL_Q), "unit": "s"},
            "peak_rss_mb": {"value": usage.ru_maxrss / 1024.0, "unit": "MB"},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
