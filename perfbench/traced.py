"""One workload run in-process, optionally with spans around public calls.

Without --spans only the workload's total time is taken, which gives the
untraced baseline for the tracing overhead. With --spans
the benchmark wraps the public functions listed in TRACED (in every module
that imported them, so internal calls are seen too), runs the workload,
then:

* for the sweep workload, runs each sweep point's ladder serially, because
  the real sweep's ladders run in pool workers whose spans are not kept;
* re-measures every distinct ladder rung once with the spectrum cache off
  (layer probe): `operator_eigenvalues(..., use_cache=False)` after
  `clear_spectrum_cache()`, and for mass > 0 the Bessel kernel fill
  `massive_scalar_integrals` on the rung's separation matrix.

Spans are kept in memory and written as JSON lines at the end. Prints one
JSON object: the workload time, the normalized output and, with --spans,
the per-layer metrics.

Usage: python perfbench/traced.py WORKLOAD_JSON [--spans --trace-out PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time

import numpy as np

from diamond_entropy import cli, discretization, entropy_pipeline, kernel_eval
from diamond_entropy.dirac_symbols import PhysicalParams
from diamond_entropy.renyi_functions import RenyiOrder

import orders
from workloads import cli_args, eps_grid, parse_output, point_summary

# (module, public function) -> span attributes taken from its bound arguments
TRACED = {
    ("cli", "main"): lambda a: {"command": (a["argv"] or [None])[0]},
    ("asymptotics", "sweep"): lambda a: {"kappa": a["order"].kappa, "jobs": a["jobs"]},
    ("entropy_pipeline", "entanglement_entropy"): lambda a: {
        "mass": a["params"].mass, "epsilon": a["params"].epsilon, "kappa": a["order"].kappa},
    ("entropy_pipeline", "subtraction_trace"): lambda a: {},
    ("entropy_pipeline", "entropy_from_eigenvalues"): lambda a: {},
    ("discretization", "build_grid"): lambda a: {"n": a["n"]},
    ("discretization", "operator_eigenvalues"): lambda a: {
        "mass": a["params"].mass, "epsilon": a["params"].epsilon, "lam": a["params"].lam,
        "n": a["grid"].size, "rule": a["grid"].rule.value, "x_offset": a["x_offset"],
        "use_cache": a["use_cache"]},
    ("kernel_eval", "massive_scalar_integrals"): lambda a: {"size": int(np.size(a["u"]))},
}

# attributes taken from a return value
RESULT_ATTRS = {
    ("entropy_pipeline", "entanglement_entropy"): lambda r: {"grid_size": r.grid_size, "converged": r.converged},
}

PHASES_RUN = ("workload", "serial_points")


class Tracer:
    """Spans kept in memory: id, name, parent id, start, end, attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1]["id"] if self._open else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, func, attrs, result_attrs=None):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            with self.span(name, **attrs(bound.arguments)) as record:
                result = func(*args, **kwargs)
                if result_attrs is not None:
                    record.update(result_attrs(result))
                return result

        return traced

    def install(self) -> None:
        """Replace each traced function wherever a package module holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "diamond_entropy" or name.startswith("diamond_entropy.")]
        for (module, func_name), attrs in TRACED.items():
            original = getattr(importlib.import_module(f"diamond_entropy.{module}"), func_name)
            wrapper = self.wrap(f"{module}.{func_name}", original, attrs,
                                RESULT_ATTRS.get((module, func_name)))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def write(self, path: str) -> None:
        children: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                line = {**s, "start": s["start"] - t0, "end": s["end"] - t0,
                        "self_s": s["end"] - s["start"] - children.get(s["id"], 0.0)}
                out.write(json.dumps(line) + "\n")


def run_workload(kind: str, spec: dict) -> dict:
    """The workload's calls, in-process; returns the normalized output."""
    if kind == "orders":
        return orders.run(spec)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(cli_args(kind, spec))
    if code != 0:
        raise SystemExit(f"diamond-entropy exited {code}")
    return parse_output(kind, spec, buf.getvalue())


def run_serial_points(spec: dict) -> list[dict]:
    """Each sweep point's ladder, in this process, cache cleared first."""
    discretization.clear_spectrum_cache()
    points = []
    for epsilon in eps_grid(spec):
        params = PhysicalParams(mass=spec["mass"], epsilon=float(epsilon), lam=1.0)
        r = entropy_pipeline.entanglement_entropy(params, RenyiOrder(spec["kappa"]),
                                                  n=spec["grid_size"])
        points.append(point_summary(r.entropy, r.grid_size, r.converged))
    return points


def probe_layers(tracer: Tracer, rungs: list[tuple]) -> None:
    discretization.clear_spectrum_cache()
    for mass, epsilon, lam, n, rule, x_offset in rungs:
        with tracer.span("probe.rung", n=n, mass=mass, epsilon=epsilon):
            grid = discretization.build_grid(n, lam, rule)
            params = PhysicalParams(mass=mass, epsilon=epsilon, lam=lam)
            discretization.operator_eigenvalues(params, grid, x_offset=x_offset,
                                                validate=False, use_cache=False)
            if mass > 0:
                x = grid.nodes + x_offset
                kernel_eval.massive_scalar_integrals(mass, epsilon, x[:, None] - x[None, :])


def rungs_tried(grid_size: int, n_start: int = entropy_pipeline.DEFAULT_N_START) -> int:
    """Ladder rungs up to and including the returned grid size."""
    count, n = 1, n_start
    while n < grid_size:
        n, count = min(2 * n, grid_size), count + 1
    return count


def layer_metrics(spans: list[dict]) -> dict:
    by_id = {s["id"]: s for s in spans}

    def phase(s: dict) -> str:
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s["name"]

    def dur(s: dict) -> float:
        return s["end"] - s["start"]

    def run_spans(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name and phase(s) in PHASES_RUN]

    def total(items) -> float:
        return sum((dur(s) for s in items), 0.0)

    def parent_name(s: dict):
        return by_id[s["parent"]]["name"] if s["parent"] is not None else None

    ladders = run_spans("entropy_pipeline.entanglement_entropy")
    points = [dur(s) for s in ladders if parent_name(s) in ("asymptotics.sweep", "serial_points")]
    probe_spectra = [s for s in spans if s["name"] == "discretization.operator_eigenvalues"
                     and phase(s) == "layer_probe"]
    probe_fills = [s for s in spans if s["name"] == "kernel_eval.massive_scalar_integrals"
                   and parent_name(s) == "probe.rung"]
    sweeps = run_spans("asymptotics.sweep")
    cli_spans = run_spans("cli.main")
    cli_children = [s for s in spans if s["parent"] in {c["id"] for c in cli_spans}]

    spectrum_s, fill_s = total(probe_spectra), total(probe_fills)
    metrics = {
        "discretization.grid_s": total(run_spans("discretization.build_grid")),
        "discretization.spectrum_s": spectrum_s,
        "discretization.eigensolve_s": spectrum_s - fill_s,
        "kernel_eval.fill_s": fill_s,
        "entropy_pipeline.ladder_s": total(ladders),
        "entropy_pipeline.rungs": sum(rungs_tried(s["grid_size"]) for s in ladders),
        "entropy_pipeline.bulk_s": total(run_spans("entropy_pipeline.subtraction_trace")),
        "entropy_pipeline.eta_trace_s": total(run_spans("entropy_pipeline.entropy_from_eigenvalues")),
        "asymptotics.point_max_s": max(points, default=0.0),
        "asymptotics.point_sum_s": sum(points, 0.0),
        "cli.self_s": total(cli_spans) - total(cli_children),
    }
    for kappa, label in ((1.0, "1"), (2.0, "2"), (0.5, "0.5")):
        metrics[f"asymptotics.sweep_s.kappa-{label}"] = total(
            s for s in sweeps if s["kappa"] == kappa)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="JSON object with the workload's kind and spec")
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    job = json.loads(args.workload)
    kind, spec = job["kind"], job["spec"]

    tracer = Tracer()
    if args.spans:
        tracer.install()
    start = time.perf_counter()
    with tracer.span("workload"):
        output = run_workload(kind, spec)
    result = {"workload_s": time.perf_counter() - start, "output": output}
    if args.spans:
        if kind == "sweep":
            with tracer.span("serial_points"):
                result["serial_points"] = run_serial_points(spec)
        rungs = sorted({(s["mass"], s["epsilon"], s["lam"], s["n"], s["rule"], s["x_offset"])
                        for s in tracer.spans
                        if s["name"] == "discretization.operator_eigenvalues"})
        with tracer.span("layer_probe"):
            probe_layers(tracer, rungs)
        if args.trace_out:
            tracer.write(args.trace_out)
        result["metrics"] = layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
