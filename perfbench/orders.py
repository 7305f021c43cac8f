"""Renyi-order workload: one epsilon sweep per kappa, in one process.

The first sweep (kappa = 1) fills the per-process spectrum cache. The later
ones read it, and kappa = 1/2 also needs a deeper rung the first did not
compute. Prints the normalized summary as JSON.

Usage: python perfbench/orders.py SPEC_JSON
       python perfbench/orders.py --import-only
"""

from __future__ import annotations

import json
import sys

from diamond_entropy import asymptotics
from diamond_entropy.dirac_symbols import PhysicalParams
from diamond_entropy.renyi_functions import RenyiOrder

from workloads import eps_grid, point_summary, sweep_summary


def run(spec: dict) -> dict:
    eps = eps_grid(spec)
    base = PhysicalParams(mass=spec["mass"], epsilon=float(eps[0]), lam=1.0)
    sweeps = []
    for kappa in spec["kappas"]:
        # looked up on the module at call time, so a traced run sees its span
        result = asymptotics.sweep(base, RenyiOrder(kappa), eps, n_max=spec["grid_size"],
                                   jobs=spec["jobs"])
        points = [point_summary(p.entropy, p.grid_size, p.converged) for p in result.points]
        sweeps.append(sweep_summary(kappa, result.slope, points))
    return {"sweeps": sweeps}


if __name__ == "__main__":
    if sys.argv[1:] != ["--import-only"]:
        print(json.dumps(run(json.loads(sys.argv[1]))))
