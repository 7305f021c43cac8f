"""The benchmark's workloads: their inputs, commands and output checks.

Every workload rep runs in a fresh process, so imports and the per-process
spectrum cache start cold, as they do for a user. Outputs are reduced to a
normalized summary (entropies, grid sizes, convergence flags, slopes) and
compared with `references.json`, which holds the summaries the seed code
printed.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"

# An exact eigensolve of a reordered matrix moves each eigenvalue by ~1e-14.
# Through eta_kappa that moves a kappa >= 1 entropy by < 1e-12, but a
# kappa = 1/2 entropy by ~2e-6, because eta_{1/2}(t) grows like sqrt(t) at 0
# and the spectrum has many eigenvalues near 0. Both tolerances sit at least
# 50x above that and far below the ~1e-2 change between two ladder rungs.
TOL = 1e-9
TOL_BELOW_KAPPA_1 = 1e-4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind "entropy" and "sweep" run the CLI subcommand of that name; kind
    "orders" runs `orders.py`, one sweep per Renyi order in one process.
    """

    name: str
    kind: str
    spec: dict
    reference: dict

    def command(self) -> list[str]:
        if self.kind == "orders":
            return [sys.executable, str(BENCH_DIR / "orders.py"), json.dumps(self.spec)]
        return [sys.executable, "-m", "diamond_entropy.cli", *cli_args(self.kind, self.spec)]

    def setup_command(self) -> list[str]:
        """A fresh process that only imports what the workload uses."""
        if self.kind == "orders":
            return [sys.executable, str(BENCH_DIR / "orders.py"), "--import-only"]
        return [sys.executable, "-m", "diamond_entropy.cli", "--version"]

    def check(self, output: dict) -> list[str]:
        """Mismatches between a normalized output and the reference."""
        return mismatches(self.reference, output)


def eps_grid(spec: dict):
    """The same log-spaced grid the CLI builds from `--eps-grid` in `cli_args`."""
    import numpy as np  # only the workload processes need numpy

    return np.geomspace(spec["eps_start"], spec["eps_stop"], spec["eps_count"])


def cli_args(kind: str, spec: dict) -> list[str]:
    args = [kind, "--kappa", str(spec["kappa"]), "--mass", str(spec["mass"])]
    if kind == "entropy":
        args += ["--epsilon", str(spec["epsilon"])]
    else:
        args += ["--eps-grid", f"{spec['eps_start']}:{spec['eps_stop']}:{spec['eps_count']}log"]
    return args + ["--grid-size", str(spec["grid_size"]), "--jobs", str(spec["jobs"])]


def point_summary(entropy: float, n: int, converged: bool) -> dict:
    return {"entropy": float(entropy), "n": int(n), "converged": bool(converged)}


def sweep_summary(kappa: float, slope: float, points: list[dict]) -> dict:
    return {"kappa": float(kappa), "slope": float(slope), "points": points}


def parse_output(kind: str, spec: dict, stdout: str) -> dict:
    """Normalized summary of what a workload process printed."""
    doc = json.loads(stdout)
    if kind == "orders":  # orders.py prints the summary itself
        return doc
    if kind == "entropy":
        r = doc["result"]
        return {"kappa": float(r["kappa"]), **point_summary(r["entropy"], r["n"], r["converged"])}
    points = [point_summary(p["entropy"], p["n"], p["converged"]) for p in doc["points"]]
    return sweep_summary(spec["kappa"], doc["fit"]["slope"], points)


def mismatches(expected, actual, tol: float = TOL, path: str = "") -> list[str]:
    """Differences between two summaries; floats compare within tol.

    A mapping with a "kappa" entry below 1 switches its subtree to the
    looser kappa < 1 tolerance.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{path or '.'}: keys differ"]
        if expected.get("kappa", 1.0) < 1.0:
            tol = TOL_BELOW_KAPPA_1
        return [m for key in expected for m in mismatches(expected[key], actual[key], tol, f"{path}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: length differs"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in mismatches(e, a, tol, f"{path}[{i}]")]
    if isinstance(expected, float):
        if not (isinstance(actual, float) and math.isfinite(actual) and abs(actual - expected) <= tol):
            return [f"{path}: {actual!r} != {expected!r} (tol {tol:g})"]
        return []
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


_EPS_GRID = {"eps_start": 0.1, "eps_stop": 0.002, "eps_count": 8}

SPECS = {
    "entropy-massive": ("entropy", {"kappa": 1.0, "mass": 1.0, "epsilon": 0.002,
                                    "grid_size": 2048, "jobs": 1}),
    "sweep-massless": ("sweep", {"kappa": 1.0, "mass": 0.0, **_EPS_GRID,
                                 "grid_size": 2048, "jobs": 2}),
    "orders": ("orders", {"kappas": [1.0, 2.0, 0.5], "mass": 0.0, **_EPS_GRID,
                          "grid_size": 2048, "jobs": 1}),
}


def load_workloads(references: Path = REFERENCES) -> dict[str, Workload]:
    refs = json.loads(references.read_text())
    return {name: Workload(name, kind, spec, refs[name]) for name, (kind, spec) in SPECS.items()}
