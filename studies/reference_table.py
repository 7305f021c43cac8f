"""High-N reference table for every point of the benchmark's three workloads.

For each point (epsilon, mass, kappa) that perfbench/references.json pins at
grid size n, one fixed-grid Gauss-Legendre spectrum is solved at n, 3n/2 and
2n (lam = 1), and every order kappa in {1, 2, 1/2} is evaluated on each
spectrum. Each row also carries the two parts of entropy_pipeline's
error_bound at N, the bulk term's tail above x(delta) = sqrt(ln^2(1/delta) -
(eps m)^2):

- rounding_tail at delta = 2N u, the ladder's floor bound at N;
- discretization_tail at delta = max(delta_N, 2N u), with delta_N =
  exp(-2N asinh(2 eps / lam)) the grid's Gauss-Legendre resolution.

The points list names each pinned point with its workload, its pinned
entropy, n and convergence flag, the table's 2n entropy and their distance
in units of the ladder's tolerance DEFAULT_REL_CHANGE |S|. The spectra are
solved on one OpenBLAS thread: at N not a power of two the eigenvalues'
last digits depend on the thread count, and one thread makes the table
reproducible. The solves at 2n = 4096 dominate its run time.

Usage: PYTHONPATH=src python studies/reference_table.py [OUTPUT_JSON]
(default studies/reference_table.json).
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import importlib.util  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from diamond_entropy import entropy_pipeline  # noqa: E402
from diamond_entropy.dirac_symbols import PhysicalParams  # noqa: E402
from diamond_entropy.discretization import operator_eigenvalues  # noqa: E402
from diamond_entropy.quadrature import build_grid  # noqa: E402
from diamond_entropy.renyi_functions import RenyiOrder  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
KAPPAS = (1.0, 2.0, 0.5)
LAM = 1.0


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pinned_points(workloads) -> list[dict]:
    """Every point the workloads pin, in the order references.json lists them."""
    points = []
    for name, workload in sorted(workloads.load_workloads().items()):
        spec, ref = workload.spec, workload.reference
        if workload.kind == "entropy":
            located = [(ref["kappa"], 0, spec["epsilon"], ref)]
        else:
            sweeps = ref["sweeps"] if workload.kind == "orders" else [ref]
            located = [(sweep["kappa"], i, float(eps), point) for sweep in sweeps
                       for i, (eps, point) in enumerate(zip(workloads.eps_grid(spec),
                                                            sweep["points"]))]
        points += [{"workload": name, "kappa": kappa, "index": i, "epsilon": eps,
                    "mass": spec["mass"], "n": point["n"], "entropy": point["entropy"],
                    "converged": point["converged"]}
                   for kappa, i, eps, point in located]
    return points


def spectrum_rows(epsilon: float, mass: float, n: int) -> list[dict]:
    """One fixed-grid spectrum at n nodes, evaluated at every order."""
    params = PhysicalParams(mass=mass, epsilon=epsilon, lam=LAM)
    eigenvalues = operator_eigenvalues(params, build_grid(n, LAM), use_cache=False)
    rows = []
    for kappa in KAPPAS:
        order = RenyiOrder(kappa)
        trace, _ = entropy_pipeline.entropy_from_eigenvalues(eigenvalues, order)
        bound = entropy_pipeline.error_bound(params, order, n)
        rows.append({
            "epsilon": epsilon, "mass": mass, "kappa": kappa, "n": n,
            "entropy": trace - entropy_pipeline.subtraction_trace(params, order),
            "rounding_tail": bound.rounding,
            "discretization_tail": bound.discretization,
        })
    return rows


def _commit() -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()

    dirty = git("status", "--porcelain", "--", "src", "studies/reference_table.py")
    return git("rev-parse", "HEAD") + ("+dirty" if dirty else "")


def build_table() -> dict:
    start = time.perf_counter()
    points = pinned_points(_load_workloads())
    grids = sorted({(p["epsilon"], p["mass"], size) for p in points
                    for size in (p["n"], 3 * p["n"] // 2, 2 * p["n"])})
    rows = [row for eps, mass, size in grids for row in spectrum_rows(eps, mass, size)]
    at = {(r["epsilon"], r["mass"], r["kappa"], r["n"]): r["entropy"] for r in rows}
    for p in points:
        p["entropy_2n"] = at[p["epsilon"], p["mass"], p["kappa"], 2 * p["n"]]
        tol = entropy_pipeline.DEFAULT_REL_CHANGE * abs(p["entropy"])
        p["tolerances_off"] = abs(p["entropy"] - p["entropy_2n"]) / tol
    return {"commit": _commit(), "run_s": round(time.perf_counter() - start, 1),
            "lam": LAM, "openblas_num_threads": 1, "points": points, "rows": rows}


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "studies" / "reference_table.json"
    table = build_table()
    with out.open("w") as handle:
        json.dump(table, handle, indent=1, allow_nan=False)
        handle.write("\n")
