"""Command-line interface.

Subcommands: entropy (one evaluation), sweep (epsilon sweep with slope fit),
kernel-dump (kernel matrix on a separation grid), verify (randomized
Schatten-norm property suite), diag (decomposition diagnostics).

Every subcommand takes --output-format and --output-path; verify also takes
--seed. sweep takes --jobs, the worker count for its epsilon points (default:
DIAMOND_ENTROPY_JOBS, else the CPU count); entropy accepts it too and
records it in its configuration when it is given, by flag or environment,
but starts no worker.

Every subcommand writes through one writer, `_write`: a JSON document, or
CSV with one row per flat record (bools as true/false, floats to 17
significant digits). JSON writes NaN, the entropy of a sweep point with no
admissible grid, as null; CSV as nan.

Exit codes: 0 success; 2 argument errors, found before any work (among them
a bad --jobs or DIAMOND_ENTROPY_JOBS, a --grid-size whose eigensolver
buffers exceed physical memory, which entanglement_entropy, sweep and
offdiagonal_diagnostic check first, and an --output-path that is a directory
or lacks its parent directory), or an --output-path that fails while being
written; 3 numerical
non-convergence; 4 property-suite failure. Outputs embed the resolved
configuration and the package version and are bit-identical for identical
configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import BoxSpec, log_growth_diagnostic, offdiagonal_diagnostic, sweep
from .dirac_symbols import PhysicalParams
from .discretization import GridRule
from .entropy_pipeline import entanglement_entropy
from .errors import ConvergenceError
from .kernel_eval import kernel_blocks
from .renyi_functions import RenyiOrder
from .schatten_toolkit import verify_commutator_lemma, verify_inequalities

_PARAM_KEYS = ("mass", "epsilon", "lambda")  # nested under "params" in entropy's JSON


def _resolve_jobs(flag: int | None) -> int | None:
    """--jobs, else DIAMOND_ENTROPY_JOBS, else None; ValueError unless >= 1."""
    source, value = "--jobs", flag
    if flag is None:
        source, value = "DIAMOND_ENTROPY_JOBS", os.environ.get("DIAMOND_ENTROPY_JOBS")
        if value is None:
            return None
    try:
        jobs = int(value)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {value!r}") from None
    if jobs < 1:
        raise ValueError(f"{source} must be >= 1")
    return jobs


def _parse_eps_grid(text: str) -> np.ndarray:
    """Grid mini-language `start:stop:Nlog` (log-spaced, inclusive)."""
    parts = text.split(":")
    if len(parts) == 3 and parts[2].endswith("log"):
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2][:-3])
        if count < 1 or not all(math.isfinite(v) and v > 0 for v in (start, stop)):
            raise ValueError(f"bad grid spec {text!r}")
        return np.geomspace(start, stop, count)
    raise ValueError(f"grid spec must be start:stop:Nlog, got {text!r}")


def _parse_alpha_grid(text: str) -> np.ndarray:
    if "log" in text:
        return _parse_eps_grid(text)
    return np.array([float(tok) for tok in text.split(",")])


class _UnwritableOutput(Exception):
    """--output-path cannot be written (exit 2)."""


def _check_output_path(path: str) -> None:
    """Refuse, before any work, a path that is a directory or lacks its parent."""
    if path == "-":
        return
    if os.path.isdir(path):
        raise _UnwritableOutput(f"cannot write --output-path {path!r}: it is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise _UnwritableOutput(f"cannot write --output-path {path!r}: no such directory")


def _json_safe(value):
    """The value with every NaN or infinity, which JSON cannot carry, as None."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _json_document(config: dict, payload: dict) -> str:
    doc = {"version": __version__, "config": config, **payload}
    return json.dumps(_json_safe(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _cell(value) -> str:
    """One CSV cell: bools as true/false, floats to 17 digits, the rest as str."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_document(config: dict, records: list[dict]) -> str:
    header = list(records[0])
    lines = [
        f"# version: {__version__}",
        "# config: " + json.dumps(config, sort_keys=True),
        ",".join(header),
    ]
    lines.extend(",".join(_cell(record[key]) for key in header) for record in records)
    return "\n".join(lines) + "\n"


def _write(args: argparse.Namespace, payload: dict, records: list[dict]) -> None:
    """The one output path: `payload` as a JSON document or `records` as CSV
    rows, to stdout or to --output-path."""
    config = _config_dict(args)
    if args.output_format == "json":
        text = _json_document(config, payload)
    else:
        text = _csv_document(config, records)
    if args.output_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(args.output_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UnwritableOutput(f"cannot write --output-path {args.output_path!r}: "
                                f"{exc.strerror or exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamond-entropy",
        description="Entanglement entropy of the damped vacuum projector on an interval",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output-format", choices=("csv", "json"), default="json")
        p.add_argument("--output-path", default="-", help="file path or - for stdout")

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=None, help="worker count (default: CPUs)")

    p_entropy = sub.add_parser("entropy", help="single entropy evaluation")
    p_entropy.add_argument("--kappa", type=float, required=True)
    p_entropy.add_argument("--mass", type=float, default=0.0)
    p_entropy.add_argument("--epsilon", type=float, required=True)
    p_entropy.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_entropy.add_argument("--grid-size", type=int, default=4096)
    p_entropy.add_argument("--rule", choices=[r.value for r in GridRule],
                           default=GridRule.GAUSS_LEGENDRE.value)
    add_common(p_entropy)
    add_jobs(p_entropy)

    p_sweep = sub.add_parser("sweep", help="epsilon sweep with slope fit")
    p_sweep.add_argument("--kappa", type=float, required=True)
    p_sweep.add_argument("--mass", type=float, default=0.0)
    p_sweep.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_sweep.add_argument("--eps-grid", type=str, required=True, help="start:stop:Nlog")
    p_sweep.add_argument("--grid-size", type=int, default=4096)
    p_sweep.add_argument("--rule", choices=[r.value for r in GridRule],
                         default=GridRule.GAUSS_LEGENDRE.value)
    add_common(p_sweep)
    add_jobs(p_sweep)

    p_kernel = sub.add_parser("kernel-dump", help="kernel matrix on a separation grid")
    p_kernel.add_argument("--mass", type=float, default=0.0)
    p_kernel.add_argument("--epsilon", type=float, required=True)
    p_kernel.add_argument("--u-max", type=float, default=5.0)
    p_kernel.add_argument("--u-count", type=int, default=101)
    add_common(p_kernel)

    p_verify = sub.add_parser("verify", help="randomized Schatten property suite")
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--dims", type=str, default="4,8,16", help="comma-separated")
    p_verify.add_argument("--seed", type=int, default=0)
    add_common(p_verify)

    p_diag = sub.add_parser("diag", help="decomposition diagnostics")
    p_diag.add_argument("--diag-type", choices=("offdiag", "log-growth"), required=True)
    p_diag.add_argument("--kappa", type=float, default=1.0)
    p_diag.add_argument("--mass", type=float, default=1.0)
    p_diag.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_diag.add_argument("--alpha-grid", type=str, default="100,1000,10000")
    p_diag.add_argument("--grid-size", type=int, default=4096)
    p_diag.add_argument("--q", type=float, default=0.5)
    p_diag.add_argument("--box-half-width", type=float, default=8.0)
    p_diag.add_argument("--box-grid-size", type=int, default=1024)
    p_diag.add_argument("--l0", type=float, default=1.0)
    add_common(p_diag)
    return parser


def _config_dict(args: argparse.Namespace) -> dict:
    return {k.replace("_", "-"): v for k, v in vars(args).items() if v is not None}


def _cmd_entropy(args) -> int:
    params = PhysicalParams(mass=args.mass, epsilon=args.epsilon, lam=args.lam)
    order = RenyiOrder(args.kappa)
    result = entanglement_entropy(params, order, n=args.grid_size, rule=GridRule(args.rule))
    if not result.converged:
        sys.stderr.write(f"warning: entropy not converged at the grid-size cap "
                         f"{args.grid_size}; reporting n={result.grid_size}\n")
    row = {"kappa": order.kappa, "mass": params.mass, "epsilon": params.epsilon,
           "lambda": params.lam, "n": result.grid_size,
           "truncated_trace": result.truncated_trace,
           "subtraction_trace": result.subtraction_trace, "entropy": result.entropy,
           "clamp_count": result.clamp_count, "converged": result.converged}
    nested = {key: value for key, value in row.items() if key not in _PARAM_KEYS}
    nested["params"] = {key: row[key] for key in _PARAM_KEYS}
    _write(args, {"result": nested}, [row])
    return 0


def _cmd_sweep(args) -> int:
    if args.jobs is None:
        args.jobs = os.cpu_count() or 1
    eps_grid = _parse_eps_grid(args.eps_grid)
    params = PhysicalParams(mass=args.mass, epsilon=float(eps_grid[0]), lam=args.lam)
    order = RenyiOrder(args.kappa)
    result = sweep(params, order, eps_grid, n_max=args.grid_size,
                   rule=GridRule(args.rule), jobs=args.jobs)
    fit = {key: getattr(result, key)
           for key in ("slope", "intercept", "r_squared", "theory_slope", "rel_error")}
    points = [
        {"epsilon": p.epsilon, "ln_inv_eps": float(np.log(1.0 / p.epsilon)),
         "entropy": p.entropy, "n": p.grid_size, "converged": p.converged}
        for p in result.points
    ]
    _write(args, {"fit": fit, "points": points}, points)
    if args.output_format == "csv":  # the rows may go to a file; the fit goes to stdout
        sys.stdout.write(_json_document(_config_dict(args), {"fit": fit}))
    return 0


def _cmd_kernel_dump(args) -> int:
    if args.u_count < 1 or not (math.isfinite(args.u_max) and args.u_max > 0):
        raise ValueError("u-count must be >= 1 and u-max finite and > 0")
    params = PhysicalParams(mass=args.mass, epsilon=args.epsilon, lam=1.0)
    u_grid = np.linspace(-args.u_max, args.u_max, args.u_count)
    K11, K12 = kernel_blocks(params, u_grid)
    K12 = np.broadcast_to(K12, u_grid.shape)
    im22 = 0.0 - K11.imag  # Im conj(K11), with 0 rather than -0 at u = 0
    columns = ("u", "re11", "im11", "re12", "im12", "re21", "im21", "re22", "im22")
    points = [
        dict(zip(columns, map(float, (u, k11.real, k11.imag, k12, 0, k12, 0,
                                      k11.real, k22_imag))))
        for u, k11, k12, k22_imag in zip(u_grid, K11, K12, im22)
    ]
    _write(args, {"kernel": points}, points)
    return 0


def _cmd_verify(args) -> int:
    dims = [int(tok) for tok in args.dims.split(",") if tok]
    if not dims or args.trials < 1:
        raise ValueError("need at least one dim and trials >= 1")
    reports = [
        {"dim": dim, **dataclasses.asdict(rep), "passed": rep.passed}
        for dim in dims
        for check in (verify_inequalities, verify_commutator_lemma)
        for rep in check(dim, args.trials, args.seed)
    ]
    _write(args, {"reports": reports}, reports)
    return 0 if all(r["passed"] for r in reports) else 4


def _cmd_diag(args) -> int:
    alphas = _parse_alpha_grid(args.alpha_grid)
    if args.diag_type == "offdiag":
        result = offdiagonal_diagnostic(
            args.lam, RenyiOrder(args.kappa), args.mass, alphas, n=args.grid_size
        )
        columns = [("offdiag_ratios", "offdiag_ratio", result.offdiag_ratios),
                   ("sup_deviations", "sup_deviation", result.sup_deviations)]
    else:
        box = BoxSpec(lam=args.lam, half_width=args.box_half_width,
                      n=args.box_grid_size, mass=args.mass, l0=args.l0)
        result = log_growth_diagnostic(args.q, alphas, box)
        ratios = [v / np.log(a) for v, a in zip(result.logq_norms, result.alpha_grid)]
        columns = [("logq_norms", "logq_norm", result.logq_norms),
                   ("ratios_to_log_alpha", "ratio_to_log_alpha", ratios)]
    columns = [("alpha_grid", "alpha", result.alpha_grid), *columns]
    diagnostics = {key: [float(v) for v in values] for key, _, values in columns}
    rows = [dict(zip([name for _, name, _ in columns], values))
            for values in zip(*diagnostics.values())]
    _write(args, {"diagnostics": diagnostics}, rows)
    return 0


_DISPATCH = {"entropy": _cmd_entropy, "sweep": _cmd_sweep, "kernel-dump": _cmd_kernel_dump,
             "verify": _cmd_verify, "diag": _cmd_diag}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own usage message
        return int(exc.code or 0)
    try:
        _check_output_path(args.output_path)
        if "jobs" in args:  # entropy and sweep
            args.jobs = _resolve_jobs(args.jobs)
        return _DISPATCH[args.command](args)
    except _UnwritableOutput as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(f"non-convergence: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
