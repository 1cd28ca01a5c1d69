"""Every check accepts sipkit's real output and rejects a perturbed one.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q

Each operation of every workload runs once; its check must pass.  Then
each value the check reads is perturbed, in both directions and at
growing sizes, and the check must reject at least one of the perturbed
values.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def perturbed(value):
    if isinstance(value, (bool, np.bool_)):
        return [not value]
    if isinstance(value, str):
        return [value + "0"]
    if isinstance(value, (int, np.integer)):
        return [value + 1, value - 1, 0]
    arr = np.array(value, dtype=float)
    out = []
    for size in (1e-6, 1e-3, 10.0):
        for sign in (1.0, -1.0):
            p = arr.copy()
            p.flat[0] += sign * size * (1.0 + np.abs(arr).max())
            out.append(float(p) if p.ndim == 0 else p)
    return out


def assert_checks_bite(ops):
    for op in ops:
        digest = op.digest(op.call())
        assert op.check(digest) == [], op.name
        for key, value in digest.items():
            rejected = [bool(op.check({**digest, key: bad})) for bad in perturbed(value)]
            assert any(rejected), f"{op.name}: perturbing {key!r} was never rejected"


@pytest.mark.parametrize("name", ["rate-suprema", "stepping"])
def test_library_checks_accept_real_and_reject_perturbed(name):
    assert_checks_bite(workloads.build(name, 0, None, False, None))


def test_cli_checks_accept_real_and_reject_perturbed(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert_checks_bite(workloads.build("cli-batch", 0, tmp_path, False, tracer.empty_totals()))
    shutil.rmtree(tmp_path, ignore_errors=True)


@pytest.mark.parametrize("seed", [0, 1])
def test_interpolation_bound_is_exact_at_its_end_points(seed):
    A = np.random.default_rng(seed).normal(size=(7, 7))
    for p in (1.0, 2.0):
        assert checks.riesz_thorin_lognorm(A, p) == pytest.approx(checks.lognorm(A, p))
    assert checks.riesz_thorin_lognorm(A, 1e12) == pytest.approx(checks.lognorm(A, math.inf))


def test_grid_references_match_dense_eigensolves():
    n, length = 9, 1.3
    L = checks.dirichlet_matrix(n, length)
    S = checks.sine_basis(n)
    assert np.allclose(S @ S, np.eye(n))
    assert np.allclose(S @ L @ S, np.diag(np.diag(S @ L @ S)))
    assert checks.dirichlet_top(n, length) == pytest.approx(np.linalg.eigvalsh(L)[-1])
    P = (np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1) - 2 * np.eye(n)) / (length / n) ** 2
    assert checks.periodic_gap(n, length) == pytest.approx(np.linalg.eigvalsh(P)[-2])
    u = np.random.default_rng(0).normal(size=n)
    assert np.allclose(checks.stencil_laplacian(u, length / (n + 1)), L @ u)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s",
        "ops_per_s",
        "op_p50_s",
        "op_tail_s",
        "peak_rss_mb",
    ]
