"""Compare two sets of benchmark results, for example a parent commit and a change.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result files written by run.py, or directories of
them.  For every metric, one row per workload gives each side's median
and quartiles, the change of the median, whether that change is within
the bound BENCHMARK.json sets (end-to-end metrics only; per-layer
metrics have none), and how many paired runs each side won.  Runs are
paired by seed where both sides ran the same seeds, otherwise in order.
Exits 1 if any end-to-end metric worsened by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(arg):
    path = Path(arg)
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        rec = json.loads(f.read_text())
        runs.setdefault((rec["trace"], rec["workload"]), []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, change):
    by_seed_b = {r["seed"]: r for r in base}
    by_seed_c = {r["seed"]: r for r in change}
    common = sorted(set(by_seed_b) & set(by_seed_c))
    if common and len(common) == min(len(base), len(change)):
        return [(by_seed_b[s], by_seed_c[s]) for s in common]
    return list(zip(base, change))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(argv[0]), load(argv[1])
    regressed = False
    for trace in (0, 1):
        keys = sorted(k for k in base if k[0] == trace and k in change)
        if not keys:
            continue
        print(f"\n== {'per-layer (traced runs)' if trace else 'end-to-end'} ==")
        for _, workload in keys:
            for side, runs in (("base", base), ("change", change)):
                rs = runs[(trace, workload)]
                att = sum(r["result"]["attempted"] for r in rs)
                fail = sum(r["result"]["failed"] for r in rs)
                ok = all(r["result"]["correct"] for r in rs)
                print(f"{workload:13s} {side:6s} runs={len(rs)} correct={ok} failed={fail}/{att}")
        names = [n for n in metrics if any(n in r["result"]["metrics"] for k in keys for r in base[k])]
        head = f"{'workload':13s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'change':>8s} {'bound':>6s} {'within':>6s} {'wins b:c':>8s}"
        for name in names:
            m = metrics[name]
            lower = m["better"] == "lower"
            print(f"\n{name} ({m['unit']}, {m['better']} is better)\n{head}")
            for key in keys:
                b = [r["result"]["metrics"][name]["value"] for r in base[key]]
                c = [r["result"]["metrics"][name]["value"] for r in change[key]]
                bq, cq = quartiles(b), quartiles(c)
                rel = (cq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
                worse = rel if lower else -rel
                bound = m.get("bound")
                within = "-" if bound is None else ("yes" if worse <= bound else "NO")
                regressed |= within == "NO"
                wins_b = wins_c = 0
                for rb, rc in pairs(base[key], change[key]):
                    vb = rb["result"]["metrics"][name]["value"]
                    vc = rc["result"]["metrics"][name]["value"]
                    if vb != vc:
                        if (vc < vb) == lower:
                            wins_c += 1
                        else:
                            wins_b += 1
                fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
                print(
                    f"{key[1]:13s} {fmt(bq):>34s} {fmt(cq):>34s} {100 * rel:+7.2f}% "
                    f"{'-' if bound is None else f'{100 * bound:.0f}%':>6s} {within:>6s} {wins_b:>3d}:{wins_c:<3d}"
                )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
