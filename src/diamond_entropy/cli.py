"""Command-line interface.

Subcommands: entropy (one evaluation), sweep (epsilon sweep with slope fit),
kernel-dump (kernel matrix on a separation grid), verify (randomized
Schatten-norm property suite), diag (decomposition diagnostics).

Every subcommand takes --output-format and --output-path; verify also takes
--seed. sweep takes --jobs, the worker count for its epsilon points (default:
DIAMOND_ENTROPY_JOBS, else the CPU count); entropy accepts it too and
records it in its configuration when it is given, by flag or environment,
but starts no worker.

Exit codes: 0 success, 2 argument errors (for entropy and sweep, a bad
--jobs or DIAMOND_ENTROPY_JOBS included, and a --grid-size whose
eigensolver buffers exceed physical memory), 3 numerical non-convergence, 4
property-suite failure. Outputs embed the resolved configuration and the
package version and are bit-identical for identical configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import (
    BoxSpec,
    log_growth_diagnostic,
    offdiagonal_diagnostic,
    sweep,
)
from .dirac_symbols import PhysicalParams
from .discretization import GridRule
from .entropy_pipeline import entanglement_entropy
from .errors import ConvergenceError
from .kernel_eval import kernel_blocks
from .renyi_functions import RenyiOrder
from .schatten_toolkit import verify_commutator_lemma, verify_inequalities

_FLOAT_FMT = ".17g"


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


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
        if count < 1 or start <= 0 or stop <= 0:
            raise ValueError(f"bad grid spec {text!r}")
        return np.geomspace(start, stop, count)
    raise ValueError(f"grid spec must be start:stop:Nlog, got {text!r}")


def _parse_alpha_grid(text: str) -> np.ndarray:
    if "log" in text:
        return _parse_eps_grid(text)
    return np.array([float(tok) for tok in text.split(",")])


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _json_document(config: dict, payload: dict) -> str:
    doc = {"version": __version__, "config": config, **payload}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_document(config: dict, header: list[str], rows: list[list[str]]) -> str:
    lines = [
        f"# version: {__version__}",
        "# config: " + json.dumps(config, sort_keys=True),
        ",".join(header),
    ]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


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
    config = _config_dict(args)
    payload = {
        "result": {
            "params": {"mass": params.mass, "epsilon": params.epsilon, "lambda": params.lam},
            "kappa": order.kappa,
            "n": result.grid_size,
            "truncated_trace": result.truncated_trace,
            "subtraction_trace": result.subtraction_trace,
            "entropy": result.entropy,
            "clamp_count": result.clamp_count,
            "converged": result.converged,
        }
    }
    if args.output_format == "json":
        _emit(_json_document(config, payload), args.output_path)
    else:
        header = ["kappa", "mass", "epsilon", "lambda", "n",
                  "truncated_trace", "subtraction_trace", "entropy", "clamp_count", "converged"]
        row = [_fmt(order.kappa), _fmt(params.mass), _fmt(params.epsilon), _fmt(params.lam),
               str(result.grid_size), _fmt(result.truncated_trace),
               _fmt(result.subtraction_trace), _fmt(result.entropy),
               str(result.clamp_count), str(result.converged).lower()]
        _emit(_csv_document(config, header, [row]), args.output_path)
    return 0


def _cmd_sweep(args) -> int:
    if args.jobs is None:
        args.jobs = os.cpu_count() or 1
    eps_grid = _parse_eps_grid(args.eps_grid)
    params = PhysicalParams(mass=args.mass, epsilon=float(eps_grid[0]), lam=args.lam)
    order = RenyiOrder(args.kappa)
    result = sweep(params, order, eps_grid, n_max=args.grid_size,
                   rule=GridRule(args.rule), jobs=args.jobs)
    config = _config_dict(args)
    fit = {
        "slope": result.slope,
        "intercept": result.intercept,
        "r_squared": result.r_squared,
        "theory_slope": result.theory_slope,
        "rel_error": result.rel_error,
    }
    if args.output_format == "json":
        points = [
            {"epsilon": p.epsilon, "ln_inv_eps": float(np.log(1.0 / p.epsilon)),
             "entropy": p.entropy, "n": p.grid_size, "converged": p.converged}
            for p in result.points
        ]
        _emit(_json_document(config, {"fit": fit, "points": points}), args.output_path)
    else:
        header = ["epsilon", "ln_inv_eps", "entropy", "n", "converged"]
        rows = [
            [_fmt(p.epsilon), _fmt(np.log(1.0 / p.epsilon)), _fmt(p.entropy),
             str(p.grid_size), str(p.converged).lower()]
            for p in result.points
        ]
        _emit(_csv_document(config, header, rows), args.output_path)
        sys.stdout.write(_json_document(config, {"fit": fit}))
    return 0


def _cmd_kernel_dump(args) -> int:
    if args.u_count < 1 or args.u_max <= 0:
        raise ValueError("u-count must be >= 1 and u-max > 0")
    params = PhysicalParams(mass=args.mass, epsilon=args.epsilon, lam=1.0)
    u_grid = np.linspace(-args.u_max, args.u_max, args.u_count)
    config = _config_dict(args)
    header = ["u", "re11", "im11", "re12", "im12", "re21", "im21", "re22", "im22"]
    K11, K12 = kernel_blocks(params, u_grid)
    K12 = np.broadcast_to(K12, u_grid.shape)
    im22 = 0.0 - K11.imag  # Im conj(K11), with 0 rather than -0 at u = 0
    rows = [
        [_fmt(u), _fmt(k11.real), _fmt(k11.imag), _fmt(k12), "0", _fmt(k12), "0",
         _fmt(k11.real), _fmt(k22_imag)]
        for u, k11, k12, k22_imag in zip(u_grid, K11, K12, im22)
    ]
    if args.output_format == "csv":
        _emit(_csv_document(config, header, rows), args.output_path)
    else:
        points = [dict(zip(header, [float(v) for v in row])) for row in rows]
        _emit(_json_document(config, {"kernel": points}), args.output_path)
    return 0


def _cmd_verify(args) -> int:
    dims = [int(tok) for tok in args.dims.split(",") if tok]
    if not dims or args.trials < 1:
        raise ValueError("need at least one dim and trials >= 1")
    reports = []
    for dim in dims:
        for rep in verify_inequalities(dim, args.trials, args.seed):
            reports.append((dim, rep))
        for rep in verify_commutator_lemma(dim, args.trials, args.seed):
            reports.append((dim, rep))
    config = _config_dict(args)
    report_dicts = [{"dim": dim, **dataclasses.asdict(rep), "passed": rep.passed}
                    for dim, rep in reports]
    failed = [r for _, r in reports if not r.passed]
    if args.output_format == "json":
        _emit(_json_document(config, {"reports": report_dicts}), args.output_path)
    else:
        header = ["dim", "inequality_name", "trials", "max_violation", "seed",
                  "slack_tolerance", "informational", "passed"]
        rows = [[str(r["dim"]), r["inequality_name"], str(r["trials"]),
                 _fmt(r["max_violation"]), str(r["seed"]), _fmt(r["slack_tolerance"]),
                 str(r["informational"]).lower(), str(r["passed"]).lower()]
                for r in report_dicts]
        _emit(_csv_document(config, header, rows), args.output_path)
    return 4 if failed else 0


def _cmd_diag(args) -> int:
    alphas = _parse_alpha_grid(args.alpha_grid)
    config = _config_dict(args)
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
    if args.output_format == "json":
        diagnostics = {"alpha_grid": [float(a) for a in result.alpha_grid]}
        diagnostics.update({key: [float(v) for v in values] for key, _, values in columns})
        _emit(_json_document(config, {"diagnostics": diagnostics}), args.output_path)
    else:
        header = ["alpha"] + [name for _, name, _ in columns]
        rows = [[_fmt(a)] + [_fmt(values[i]) for _, _, values in columns]
                for i, a in enumerate(result.alpha_grid)]
        _emit(_csv_document(config, header, rows), args.output_path)
    return 0


_DISPATCH = {
    "entropy": _cmd_entropy,
    "sweep": _cmd_sweep,
    "kernel-dump": _cmd_kernel_dump,
    "verify": _cmd_verify,
    "diag": _cmd_diag,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own usage message
        return int(exc.code or 0)
    try:
        if "jobs" in args:  # entropy and sweep
            args.jobs = _resolve_jobs(args.jobs)
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(f"non-convergence: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
