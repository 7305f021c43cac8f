"""Smoke tests of the benchmark harness at tiny sizes (about a minute).

Run from the repository root: python -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
from workloads import SPECS, TOL, TOL_BELOW_KAPPA_1, Workload, mismatches

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_GRID = {"eps_start": 0.3, "eps_stop": 0.01, "eps_count": 6}
TINY_SPECS = {
    "entropy-massive": {**SPECS["entropy-massive"][1], "epsilon": 0.02, "grid_size": 256},
    "sweep-massless": {**SPECS["sweep-massless"][1], **TINY_GRID, "grid_size": 512},
    "orders": {**SPECS["orders"][1], **TINY_GRID, "grid_size": 512},
}


@pytest.fixture(scope="module")
def tiny():
    """Tiny workloads whose references are their own untraced outputs."""
    run.RESULTS.mkdir(exist_ok=True)
    workloads = {}
    for name, spec in TINY_SPECS.items():
        workload = Workload(name, SPECS[name][0], spec, reference={})
        job = json.dumps({"kind": workload.kind, "spec": spec})
        sample = run.run_process("reference", [sys.executable, str(run.BENCH_DIR / "traced.py"), job], 120)
        assert sample.returncode == 0, sample.stderr
        workloads[name] = replace(workload, reference=json.loads(sample.stdout)["output"])
    return workloads


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("name", sorted(TINY_SPECS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tiny, name, trace, section):
    result, record = run.measure(tiny[name], seed=3, seconds=0, trace=trace)
    assert result["correct"], record["samples"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    json.dumps(result)


def test_tampered_reference_fails_the_run(tiny):
    workload = tiny["entropy-massive"]
    tampered = replace(workload, reference={**workload.reference,
                                            "entropy": workload.reference["entropy"] + 1e-3})
    result, _ = run.measure(tampered, seed=0, seconds=0, trace=0)
    assert not result["correct"]
    assert result["failed"] == 1


@pytest.mark.parametrize("kappa, tol", [(1.0, TOL), (2.0, TOL), (0.5, TOL_BELOW_KAPPA_1)])
def test_tolerance_passes_reordered_solve_and_rejects_wrong_spectrum(kappa, tol):
    reference = {"kappa": kappa, "slope": 0.3, "points": [{"entropy": 2.0, "n": 256, "converged": True}]}

    def with_entropy(delta):
        return {**reference, "points": [{**reference["points"][0], "entropy": 2.0 + delta}]}

    assert mismatches(reference, with_entropy(tol / 50)) == []
    assert mismatches(reference, with_entropy(1e-3)) != []
    assert mismatches(reference, {**reference, "points": [{**reference["points"][0], "n": 512}]})


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-massless", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
