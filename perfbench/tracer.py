"""Per-layer spans and work counters, recorded from outside sipkit.

``Tracer.install`` replaces every public function of sipkit (the names
in ``sipkit.__all__`` plus the entry points of ``sipkit.cli``) with a
timing wrapper, in every sipkit module that holds a binding to it, so a
call such as ``measures`` -> ``sip`` (through measures' own
``from .spaces import sip``) is seen too.  ``VectorField.__call__`` and
``VectorField.jacobian`` are wrapped on the class.  A span's self time
is its duration minus the time of the spans it encloses, so the layer
self times of one run never overlap.

A field evaluation is charged to the layer whose module defined the
field function: ``rd_simulate``'s field to pdelab, ``VectorField.linear``
to measures, the CLI's fields to cli, and fields the benchmark defines
itself to ``user``.

Run as a script, this module is a traced stand-in for
``python -m sipkit.cli``:

    python3 perfbench/tracer.py TRACE.json run scenario.json --out DIR --seed N

It writes the totals of the child process to TRACE.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("spaces", "measures", "flows", "invariants", "couplings", "pdelab", "mirror", "cli", "user")
CLI_ENTRY_POINTS = ("main", "run_scenario", "validate_scenario", "emit_series")
COUNTERS = (
    "field_evals",
    "jacobian_evals",
    "fixed_point_field_evals",
    "samples",
    "ascent_iters",
    "rk4_steps",
    "rk4_step_dims",
    "mirror_steps",
    "operator_bytes",
)

# (metric, unit) in the order they are printed; values are per round.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.process_s", "s"),
    ("cli.handler_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.self_s", "s"),
    ("spaces.sip.calls", "count"),
    ("spaces.sip.us_per_call", "us"),
    ("spaces.norm.calls", "count"),
    ("spaces.norm.us_per_call", "us"),
    ("spaces.self_s", "s"),
    ("measures.field_evals", "count"),
    ("measures.jacobian_evals", "count"),
    ("measures.operator_rate.calls", "count"),
    ("measures.samples", "count"),
    ("measures.ascent_iters", "count"),
    ("measures.integral_rate.s", "s"),
    ("measures.differential_rate.s", "s"),
    ("measures.self_s", "s"),
    ("invariants.subspace_certificate.s", "s"),
    ("invariants.manifold_certificate.s", "s"),
    ("invariants.self_s", "s"),
    ("couplings.feedback_certificate.s", "s"),
    ("couplings.self_s", "s"),
    ("flows.integrate.calls", "count"),
    ("flows.rk4_steps", "count"),
    ("flows.us_per_step_dim", "us"),
    ("flows.verify_contraction.s", "s"),
    ("flows.self_s", "s"),
    ("pdelab.fixed_point_solve.s", "s"),
    ("pdelab.fixed_point.field_evals", "count"),
    ("pdelab.build_laplacian.s", "s"),
    ("pdelab.operator_bytes", "bytes"),
    ("pdelab.rd_simulate.s", "s"),
    ("pdelab.poincare_rate.s", "s"),
    ("pdelab.self_s", "s"),
    ("mirror.mirror_descent_run.s", "s"),
    ("mirror.us_per_step", "us"),
    ("mirror.self_s", "s"),
    ("user.self_s", "s"),
    ("trace.op_s", "s"),
)


def empty_totals():
    return {
        "self_s": dict.fromkeys(LAYERS, 0.0),
        "fn": {},  # "layer.name" -> [calls, self seconds, inclusive seconds]
        "count": dict.fromkeys(COUNTERS, 0),
        "cli": {"process_s": 0.0, "handler_s": 0.0},
    }


def add_totals(into, other):
    """Sum ``other`` into ``into`` (both as made by empty_totals)."""
    for k, v in other["self_s"].items():
        into["self_s"][k] += v
    for k, v in other["fn"].items():
        acc = into["fn"].setdefault(k, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += v[i]
    for k, v in other["count"].items():
        into["count"][k] += v
    for k, v in other["cli"].items():
        into["cli"][k] += v


def _field_layer(fn):
    layer = (getattr(fn, "__module__", "") or "").removeprefix("sipkit.")
    return layer if layer in LAYERS else "user"


class Tracer:
    """Wraps sipkit's public functions and accumulates totals in place."""

    def __init__(self):
        self.totals = empty_totals()
        self._stack = []  # per open span: time spent in its child spans
        self._in_fixed_point = 0

    def reset(self):
        fresh = empty_totals()
        for key in ("self_s", "count", "cli"):
            self.totals[key].update(fresh[key])
        for stats in self.totals["fn"].values():
            stats[:] = [0, 0.0, 0.0]

    def _wrap(self, fn, key, layer_of, after=None):
        stats = self.totals["fn"].setdefault(key, [0, 0.0, 0.0])
        self_s = self.totals["self_s"]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                own = dt - stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += own
                stats[2] += dt
                self_s[layer_of(args)] += own
            if after is not None:
                after(out)
            return out

        return span

    def install(self):
        import sipkit
        import sipkit.cli
        from sipkit.measures import RateEstimate, VectorField

        count = self.totals["count"]

        def add_rate(est):
            if isinstance(est, RateEstimate):
                count["samples"] += est.samples
                count["ascent_iters"] += est.ascent_iters

        def add_trajectory(tr):
            steps = len(tr.times) - 1
            count["rk4_steps"] += steps
            count["rk4_step_dims"] += steps * tr.dim

        def add_operator(op):
            count["operator_bytes"] += op.nbytes

        def add_mirror(out):
            count["mirror_steps"] += len(out[1].risks) - 1

        after = {
            "flows.integrate": add_trajectory,
            "pdelab.build_laplacian": add_operator,
            "pdelab.difference_operator": add_operator,
            "mirror.mirror_descent_run": add_mirror,
            "invariants.subspace_certificate": lambda rep: add_rate(rep.rate),
            "invariants.manifold_certificate": lambda rep: add_rate(rep.rate),
        }
        public = [getattr(sipkit, name) for name in sipkit.__all__]
        public += [getattr(sipkit.cli, name) for name in CLI_ENTRY_POINTS]
        wrapped = {}
        for fn in public:
            if not inspect.isfunction(fn) or not fn.__module__.startswith("sipkit."):
                continue
            layer = fn.__module__.removeprefix("sipkit.")
            key = f"{layer}.{fn.__name__}"
            hook = after.get(key, add_rate if layer == "measures" else None)
            wrapped[fn] = self._wrap(fn, key, lambda args, layer=layer: layer, hook)
        fixed_point = wrapped[sipkit.fixed_point_solve]

        @functools.wraps(fixed_point)
        def fixed_point_scope(*args, **kwargs):
            self._in_fixed_point += 1
            try:
                return fixed_point(*args, **kwargs)
            finally:
                self._in_fixed_point -= 1

        wrapped[sipkit.fixed_point_solve] = fixed_point_scope
        modules = [sipkit] + [sys.modules[f"sipkit.{m}"] for m in LAYERS if f"sipkit.{m}" in sys.modules]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])

        def count_field(_):
            count["field_evals"] += 1
            if self._in_fixed_point:
                count["fixed_point_field_evals"] += 1

        def count_jacobian(_):
            count["jacobian_evals"] += 1

        VectorField.__call__ = self._wrap(
            VectorField.__call__, "measures.field", lambda args: _field_layer(args[0].fn), count_field
        )
        VectorField.jacobian = self._wrap(
            VectorField.jacobian, "measures.jacobian", lambda args: "measures", count_jacobian
        )
        return self


def layer_metrics(totals, rounds, op_seconds, import_s):
    """Per-round layer metrics from accumulated totals.

    ``op_seconds`` is the traced wall time of all operations and
    ``import_s`` the measured cost of importing sipkit.cli.
    """
    fn = totals["fn"]
    count = totals["count"]

    def stat(key):  # [calls, self seconds, inclusive seconds]
        return fn.get(key, (0, 0.0, 0.0))

    def calls(key):
        return stat(key)[0] / rounds

    def self_s(key):
        return stat(key)[1] / rounds

    def us_per(key, per):
        return 1e6 * stat(key)[2] / per if per else 0.0

    cli = totals["cli"]
    values = {
        "cli.import_s": import_s,
        "cli.process_s": cli["process_s"] / rounds,
        "cli.handler_s": cli["handler_s"] / rounds,
        "cli.startup_s": (cli["process_s"] - cli["handler_s"]) / rounds,
        "spaces.sip.calls": calls("spaces.sip"),
        "spaces.sip.us_per_call": us_per("spaces.sip", stat("spaces.sip")[0]),
        "spaces.norm.calls": calls("spaces.norm"),
        "spaces.norm.us_per_call": us_per("spaces.norm", stat("spaces.norm")[0]),
        "measures.field_evals": count["field_evals"] / rounds,
        "measures.jacobian_evals": count["jacobian_evals"] / rounds,
        "measures.operator_rate.calls": calls("measures.operator_rate"),
        "measures.samples": count["samples"] / rounds,
        "measures.ascent_iters": count["ascent_iters"] / rounds,
        "measures.integral_rate.s": self_s("measures.integral_rate"),
        "measures.differential_rate.s": self_s("measures.differential_rate"),
        "invariants.subspace_certificate.s": self_s("invariants.subspace_certificate"),
        "invariants.manifold_certificate.s": self_s("invariants.manifold_certificate"),
        "couplings.feedback_certificate.s": self_s("couplings.feedback_certificate"),
        "flows.integrate.calls": calls("flows.integrate"),
        "flows.rk4_steps": count["rk4_steps"] / rounds,
        "flows.us_per_step_dim": us_per("flows.integrate", count["rk4_step_dims"]),
        "flows.verify_contraction.s": self_s("flows.verify_contraction"),
        "pdelab.fixed_point_solve.s": self_s("pdelab.fixed_point_solve"),
        "pdelab.fixed_point.field_evals": count["fixed_point_field_evals"] / rounds,
        "pdelab.build_laplacian.s": self_s("pdelab.build_laplacian"),
        "pdelab.operator_bytes": count["operator_bytes"] / rounds,
        "pdelab.rd_simulate.s": self_s("pdelab.rd_simulate"),
        "pdelab.poincare_rate.s": self_s("pdelab.poincare_rate"),
        "mirror.mirror_descent_run.s": self_s("mirror.mirror_descent_run"),
        "mirror.us_per_step": us_per("mirror.mirror_descent_run", count["mirror_steps"]),
        "trace.op_s": op_seconds / rounds,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = totals["self_s"][layer] / rounds
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


if __name__ == "__main__":
    trace_path = Path(sys.argv[1])
    tracer = Tracer().install()
    import sipkit.cli

    code = sipkit.cli.main(sys.argv[2:])
    trace_path.write_text(json.dumps(tracer.totals))
    sys.exit(code)
