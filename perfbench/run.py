"""Run one workload of the sipkit benchmark and print its result.

    python3 perfbench/run.py --workload {cli-batch,rate-suprema,stepping} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; sipkit is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A fuller record, with the versions of Python, numpy,
scipy and BLAS and the core count, goes to ``perfbench/results/``.

This script uses only the standard library.  It sets the BLAS thread
variables and PYTHONPATH for every process it starts, so they hold
before numpy loads.  Without ``--trace`` it starts the workload process
SETUP_REPEATS times and reports the median time from process start to
the first timed operation as ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
BLAS_THREADS = "1"  # single-threaded BLAS: the steadiest baseline on a shared 2-core machine
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 175  # the whole run, set-up repeats included, ends within this


def child_env():
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, setup_only, deadline):
    """Start the workload process; return (seconds until it is ready, its JSON line)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - t0))[0]:
            raise RuntimeError("workload process did not get ready in time")
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"workload process failed (exit {proc.returncode})")
    return setup, (rest.strip().splitlines() or [""])[-1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sipkit" / "__init__.py").is_file():
        print(f"no sipkit sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups = [start_worker(args, True, deadline)[0] for _ in range(0 if args.trace else SETUP_REPEATS - 1)]
        setup, line = start_worker(args, False, deadline)
        report = json.loads(line)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    metrics = report["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": report["rounds"],
        "op_mean_s": report["op_mean_s"],
        "setup_samples_s": setups,
        "env": report["env"],
        "result": result,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
