"""The benchmark still runs against the library and still reads its numbers.

perfbench/traced.py binds library functions by name and by their parameters
(operator_eigenvalues' x_offset and use_cache, sweep's jobs, ...) and calls
clear_spectrum_cache. This runs it with spans on a tiny workload of each
kind and checks that it prints every per-layer metric of BENCHMARK.json,
with the ladders and their rungs seen. It also runs each frozen workload
once on one BLAS thread and applies the workload's own output check
against perfbench/references.json, so a changed entropy, n or converged flag
shows here and not first in a benchmark run. Every converged point pinned
there is checked against the fixed-grid 2n entropy of
studies/reference_table.json, read from that file, not recomputed, and each
row's two bulk tails must be error_bound's two parts at that row.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diamond_entropy import PhysicalParams, RenyiOrder, error_bound
from diamond_entropy.entropy_pipeline import DEFAULT_REL_CHANGE

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
WORKLOADS = workloads.load_workloads()
TABLE = json.loads((ROOT / "studies" / "reference_table.json").read_text())
# perfbench/run.py derives trace.overhead_s from a second, untraced run
LAYER_KEYS = {m["name"] for m in BENCHMARK["per_layer"]} - {"trace.overhead_s"}

TINY_SWEEP = {"mass": 0.0, "eps_start": 0.5, "eps_stop": 0.01, "eps_count": 6,
              "grid_size": 512}
TINY = {
    "entropy": {"kappa": 1.0, "mass": 1.0, "epsilon": 0.1, "grid_size": 256, "jobs": 1},
    "sweep": {"kappa": 1.0, **TINY_SWEEP, "jobs": 2},
    "orders": {"kappas": [1.0, 0.5], **TINY_SWEEP, "jobs": 1},
}


def _pinned_env():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    env.pop("DIAMOND_ENTROPY_JOBS", None)
    return env


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_prints_every_layer_metric(kind):
    job = json.dumps({"kind": kind, "spec": TINY[kind]})
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), job, "--spans"],
        capture_output=True, text=True, env=_pinned_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)["metrics"]
    assert len(LAYER_KEYS) == 14
    assert set(metrics) == LAYER_KEYS
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    # the tracer sees the ladders only while every point runs its own
    # entanglement_entropy and every rung its own operator_eigenvalues
    assert metrics["entropy_pipeline.rungs"] > 0
    if kind != "entropy":
        assert metrics["asymptotics.point_max_s"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_output_matches_its_reference(name):
    workload = WORKLOADS[name]
    proc = subprocess.run(workload.command(), capture_output=True, text=True, cwd=ROOT,
                          env=_pinned_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert workload.check(workloads.parse_output(workload.kind, workload.spec, proc.stdout)) == []


def _pinned(workload) -> list[tuple]:
    """(kappa, index in its sweep, point) for every point the reference pins."""
    ref = workload.reference
    if workload.kind == "entropy":
        return [(ref["kappa"], 0, ref)]
    sweeps = ref["sweeps"] if workload.kind == "orders" else [ref]
    return [(sweep["kappa"], i, point) for sweep in sweeps
            for i, point in enumerate(sweep["points"])]


def test_every_converged_pinned_point_lies_within_its_tolerance_of_the_2n_reference():
    # the ladder calls a point converged once it moved by less than
    # DEFAULT_REL_CHANGE |S|; the same point on a fixed grid of twice its n
    # must lie that close too. Unconverged points are listed in the table
    # (kappa = 1/2 at eps = 0.002 sits 4.7 tolerances off) but not checked.
    rows = {(r["epsilon"], r["mass"], r["kappa"], r["n"]): r["entropy"] for r in TABLE["rows"]}
    listed = {(p["workload"], p["kappa"], p["index"]): p for p in TABLE["points"]}
    pinned = [(name, *found) for name, workload in sorted(WORKLOADS.items())
              for found in _pinned(workload)]
    assert len(pinned) == len(listed) == 33
    off = []
    for name, kappa, index, point in pinned:
        entry = listed[name, kappa, index]
        assert (entry["n"], entry["entropy"], entry["converged"]) == (
            point["n"], point["entropy"], point["converged"])
        reference = rows[entry["epsilon"], entry["mass"], kappa, 2 * point["n"]]
        if point["converged"]:
            tol = DEFAULT_REL_CHANGE * abs(point["entropy"])
            off.append(abs(point["entropy"] - reference) / tol)
    assert len(off) == 27
    assert max(off) <= 1.0


def test_error_bound_reproduces_every_rows_two_tails():
    # the table's tails come from error_bound itself, so a change to either
    # part shows here, without a solve
    assert len(TABLE["rows"]) == 99
    for row in TABLE["rows"]:
        params = PhysicalParams(mass=row["mass"], epsilon=row["epsilon"], lam=TABLE["lam"])
        bound = error_bound(params, RenyiOrder(row["kappa"]), row["n"])
        assert (bound.rounding, bound.discretization) == (
            row["rounding_tail"], row["discretization_tail"]), row


def test_the_discretization_part_bounds_each_doubling_of_the_grid():
    # |S(n) - S(2n)| on the same fixed grids lies below n's discretization
    # part on every pair, at most 0.43 of it
    rows = {(r["epsilon"], r["mass"], r["kappa"], r["n"]): r for r in TABLE["rows"]}
    pairs = [(row, rows[(*key[:3], 2 * key[3])]) for key, row in rows.items()
             if (*key[:3], 2 * key[3]) in rows]
    assert len(pairs) == 45
    ratios = [abs(row["entropy"] - doubled["entropy"]) / row["discretization_tail"]
              for row, doubled in pairs]
    assert max(ratios) < 1.0
