"""Command-line interface.

Subcommands: entropy (one evaluation), sweep (epsilon sweep with slope fit),
kernel-dump (kernel matrix on a separation grid), verify (randomized
Schatten-norm property suite), diag offdiag and diag log-growth
(decomposition diagnostics).

Each subcommand takes only the flags it reads, and every one takes
--output-format and --output-path. verify also takes --seed. diag offdiag
takes --kappa and --grid-size, diag log-growth --q, --box-half-width,
--box-grid-size and --l0, and both take --mass, --lambda and --alpha-grid.
sweep takes --jobs, the most worker processes for its epsilon points
(default 1, so no pool); it runs no more than one per point and no more than
fit in memory at the --grid-size cap. entropy accepts --jobs too and records
it in its configuration when it is given, but starts no worker. No
environment variable and no CPU count enters either. The library sets the
OpenBLAS thread count of every solve by the one rule in the discretization
module docstring, never above the count the process starts with. Where the
grid size is a power of two, as on every rung of the default ladder, stdout
does not depend on the thread count the process starts with.

Every subcommand writes one document through one writer, `_write`, which
encodes it straight into stdout or the --output-path file: a JSON document,
or CSV with `# version:` and `# config:` lines (sweep adds a `# fit:` line),
a header and one row per flat record (bools as true/false, floats to 17
significant digits). The entropy of a sweep point with no admissible grid,
NaN, is null in JSON and nan in CSV; JSON refuses every other non-finite
float. Stderr gets one warning line, the reason its EntropyResult holds, per
unconverged entropy rung and null or unconverged sweep point, a refused
sweep's too, and one per diag offdiag alpha whose spectra stray past the
range band [-1e-6, 1 + 1e-6], where the grid does not resolve it (exit 0).
An unconverged result's reason ends with "error bound B, within|above the
tolerance T": B is the discretization part of entropy_pipeline.error_bound,
the bulk mass below the grid's resolution delta_N = exp(-2N asinh(2 eps /
lambda)) or the rounding band 2N u, whichever is higher, and T the 0.5%
tolerance. B sets no exit code; only the rounding part does (below).

verify's quasi-norm sums, like diag log-growth's, leave out the singular
values s <= s_1 * size * 2^-52 (size the larger matrix dimension), rounding
noise that s^q with q < 1 magnifies (schatten_toolkit.power_sum).

Exit codes: 0 success; 2 argument errors, found before any work, or, in one
line each, an --output-path that fails while being written and a spectrum
buffer that cannot be mapped (under a soft RLIMIT_AS, say) or another
allocation that fails (MemoryError); 3 numerical non-convergence, an
eigensolve or SVD that LAPACK reports as failed among it, an epsilon whose
bulk term or massless kernel leaves the float range (entropy and
kernel-dump at 1e-310), and an order below 1 whose reported rung, converged
or not, does not clear its floor bound, error_bound's rounding part, the
bulk mass below the solver's rounding band 2N u (entropy --kappa 0.3 and 0.1
--epsilon 0.01 --grid-size 2048);
4 property-suite failure. Among the argument errors are a --grid-size cap
below 64 for entropy, sweep and diag offdiag, a flag the subcommand does not
take, a --jobs that is not an integer >= 1, an --alpha-grid entry that is not finite and > 0, a kernel-dump --u-max that is
not > 0 or exceeds the largest float over 2 pi, an --output-path that is a
directory or lacks its parent directory, and every request beyond the lesser
of physical memory and the process's cgroup memory limit, which names that
limit and the largest value that fits: the --grid-size cap of entropy, sweep
and diag offdiag (one spectrum's eigensolver buffers), diag log-growth's
--box-grid-size over its alpha grid, kernel-dump's --u-count, verify's
--trials at each --dims entry, and the count N of an Nlog --eps-grid or
--alpha-grid. Outputs embed the resolved configuration and the package
version, and are bit-identical for identical configuration.
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
from .asymptotics import log_growth_diagnostic, offdiagonal_diagnostic, sweep
from .dirac_symbols import PhysicalParams
from .discretization import DEFAULT_TOL_DISC, check_memory
from .entropy_pipeline import DEFAULT_N_MAX, entanglement_entropy
from .errors import ConvergenceError
from .kernel_eval import kernel_blocks
from .quadrature import GridRule
from .renyi_functions import RenyiOrder
from .schatten_toolkit import check_suite_args, verify_commutator_lemma, verify_inequalities

_PARAM_KEYS = ("mass", "epsilon", "lambda")  # nested under "params" in entropy's JSON
# peak resident bytes per kernel-dump row, the row's dict of 9 floats: 605-631
# bytes measured in both formats at mass 0 and 1 (max RSS over a --u-count 1
# run, 5e4 and 2e5 rows)
_KERNEL_DUMP_ROW_BYTES = 700
# the largest --u-max: 2 pi u, in the massless kernel, and linspace's span
# 2 u both stay finite
_MAX_U = np.finfo(float).max / (2.0 * math.pi)
# peak bytes per Nlog grid point: np.geomspace's, by tracemalloc at 1e5 and 1e6 points
_GRID_POINT_BYTES = 16


def _worker_count(text: str) -> int:
    """A --jobs value: an integer >= 1, else argparse exits 2."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return jobs


def _parse_eps_grid(text: str) -> np.ndarray:
    """Grid mini-language `start:stop:Nlog` (log-spaced, inclusive)."""
    parts = text.split(":")
    if len(parts) == 3 and parts[2].endswith("log"):
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2][:-3])
        except ValueError:
            raise ValueError(f"bad grid spec {text!r}") from None
        if count < 1 or not all(math.isfinite(v) and v > 0 for v in (start, stop)):
            raise ValueError(f"bad grid spec {text!r}")
        check_memory(lambda points: _GRID_POINT_BYTES * points, count, "Nlog count",
                     f" in {text!r}")
        return np.geomspace(start, stop, count)
    raise ValueError(f"grid spec must be start:stop:Nlog, got {text!r}")


def _parse_alpha_grid(text: str) -> np.ndarray:
    """`start:stop:Nlog` as for --eps-grid, or comma-separated alphas, each
    finite and > 0."""
    if "log" in text:
        return _parse_eps_grid(text)
    bad = ValueError(f"bad alpha grid {text!r}: each entry must be finite and > 0")
    try:
        alphas = np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise bad from None
    if not np.all(np.isfinite(alphas) & (alphas > 0)):
        raise bad
    return alphas


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


def _cell(value) -> str:
    """One CSV cell: bools as true/false, floats to 17 digits, the rest as str."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _encode(out, args: argparse.Namespace, payload: dict, records: list[dict]) -> None:
    config = _config_dict(args)
    if args.output_format == "json":
        json.dump({"version": __version__, "config": config, **payload}, out,
                  sort_keys=True, indent=2, allow_nan=False)
        out.write("\n")
        return
    out.write(f"# version: {__version__}\n# config: {json.dumps(config, sort_keys=True)}\n")
    if "fit" in payload:  # sweep's fit, which has no row of its own
        out.write(f"# fit: {json.dumps(payload['fit'], sort_keys=True)}\n")
    header = list(records[0])
    out.write(",".join(header) + "\n")
    for record in records:
        out.write(",".join(_cell(record[key]) for key in header) + "\n")


def _write(args: argparse.Namespace, payload: dict, records: list[dict]) -> None:
    """The one output path: `payload` as a JSON document or `records` as CSV
    rows, encoded straight into stdout or --output-path."""
    if args.output_path == "-":
        _encode(sys.stdout, args, payload, records)
        return
    try:
        with open(args.output_path, "w", encoding="utf-8", newline="") as handle:
            _encode(handle, args, payload, records)
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

    def add_physics(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kappa", type=float, required=True)
        p.add_argument("--mass", type=float, default=0.0)
        p.add_argument("--lambda", dest="lam", type=float, default=1.0)
        p.add_argument("--grid-size", type=int, default=DEFAULT_N_MAX)
        p.add_argument("--rule", choices=[r.value for r in GridRule],
                       default=GridRule.GAUSS_LEGENDRE.value)

    p_entropy = sub.add_parser("entropy", help="single entropy evaluation")
    add_physics(p_entropy)
    p_entropy.add_argument("--epsilon", type=float, required=True)
    add_common(p_entropy)
    p_entropy.add_argument("--jobs", type=_worker_count,
                           help="recorded in the configuration; entropy starts no worker")

    p_sweep = sub.add_parser("sweep", help="epsilon sweep with slope fit")
    add_physics(p_sweep)
    p_sweep.add_argument("--eps-grid", type=str, required=True, help="start:stop:Nlog")
    add_common(p_sweep)
    p_sweep.add_argument("--jobs", type=_worker_count, default=1,
                         help="most worker processes for the epsilon points (default 1)")

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
    diag_types = p_diag.add_subparsers(dest="diag_type", required=True)

    def add_diag(name: str, summary: str) -> argparse.ArgumentParser:
        p = diag_types.add_parser(name, help=summary)
        p.add_argument("--mass", type=float, default=1.0)
        p.add_argument("--lambda", dest="lam", type=float, default=1.0)
        p.add_argument("--alpha-grid", type=str, default="100,1000,10000")
        add_common(p)
        return p

    p_offdiag = add_diag("offdiag", "mass contribution and high-frequency symbol deviation")
    p_offdiag.add_argument("--kappa", type=float, default=1.0)
    p_offdiag.add_argument("--grid-size", type=int, default=DEFAULT_N_MAX)
    p_growth = add_diag("log-growth", "cross-block quasi-norm growth")
    p_growth.add_argument("--q", type=float, default=0.5)
    p_growth.add_argument("--box-half-width", type=float, default=8.0)
    p_growth.add_argument("--box-grid-size", type=int, default=1024,
                          help="total node budget of a cross block, <= 24 per panel")
    p_growth.add_argument("--l0", type=float, default=1.0)
    return parser


def _config_dict(args: argparse.Namespace) -> dict:
    """The flags given or defaulted."""
    return {k.replace("_", "-"): v for k, v in vars(args).items() if v is not None}


def _cmd_entropy(args) -> int:
    params = PhysicalParams(mass=args.mass, epsilon=args.epsilon, lam=args.lam)
    order = RenyiOrder(args.kappa)
    result = entanglement_entropy(params, order, n=args.grid_size, rule=GridRule(args.rule))
    if not result.converged:
        sys.stderr.write(f"warning: entropy {result.reason}\n")
    row = {"kappa": order.kappa, "mass": params.mass, "epsilon": params.epsilon,
           "lambda": params.lam, "n": result.grid_size,
           "truncated_trace": result.truncated_trace,
           "subtraction_trace": result.subtraction_trace, "entropy": result.entropy,
           "clamp_count": result.clamp_count, "converged": result.converged}
    nested = {key: value for key, value in row.items() if key not in _PARAM_KEYS}
    nested["params"] = {key: row[key] for key in _PARAM_KEYS}
    _write(args, {"result": nested}, [row])
    return 0


def _warn_unconverged(points) -> None:
    for p in points:
        if not p.converged:
            sys.stderr.write(f"warning: sweep point epsilon={p.params.epsilon:.6g}: {p.reason}\n")


def _cmd_sweep(args) -> int:
    eps_grid = _parse_eps_grid(args.eps_grid)
    params = PhysicalParams(mass=args.mass, epsilon=float(eps_grid[0]), lam=args.lam)
    order = RenyiOrder(args.kappa)
    result = sweep(params, order, eps_grid, n_max=args.grid_size,
                   rule=GridRule(args.rule), jobs=args.jobs)
    _warn_unconverged(result.points)
    fit = {key: getattr(result, key)
           for key in ("slope", "intercept", "r_squared", "theory_slope", "rel_error")}
    rows = [{"epsilon": p.params.epsilon, "ln_inv_eps": float(np.log(1.0 / p.params.epsilon)),
             "entropy": p.entropy, "n": p.grid_size, "converged": p.converged}
            for p in result.points]
    # a point with no admissible grid has a NaN entropy, which JSON writes as null
    points = [{**row, "entropy": None} if math.isnan(row["entropy"]) else row for row in rows]
    _write(args, {"fit": fit, "points": points}, rows)
    return 0


def _cmd_kernel_dump(args) -> int:
    if args.u_count < 1 or not 0 < args.u_max <= _MAX_U:
        raise ValueError(f"u-count must be >= 1 and u-max > 0 and at most {_MAX_U:.4g}")
    check_memory(lambda rows: _KERNEL_DUMP_ROW_BYTES * rows, args.u_count, "--u-count")
    params = PhysicalParams(mass=args.mass, epsilon=args.epsilon, lam=1.0)
    u_grid = np.linspace(-args.u_max, args.u_max, args.u_count)
    re11, im11, k12 = kernel_blocks(params, u_grid)
    im22 = 0.0 - im11  # Im conj(K11), with 0 rather than -0 at u = 0
    columns = ("u", "re11", "im11", "re12", "im12", "re21", "im21", "re22", "im22")
    points = [
        dict(zip(columns, map(float, (u, re, im, k, 0, k, 0, re, im2))))
        for u, re, im, k, im2 in zip(u_grid, re11, im11, np.broadcast_to(k12, u_grid.shape), im22)
    ]
    _write(args, {"kernel": points}, points)
    return 0


def _cmd_verify(args) -> int:
    dims = [int(tok) for tok in args.dims.split(",") if tok]
    if not dims:
        raise ValueError("need at least one dim")
    for dim in dims:
        check_suite_args(dim, args.trials)
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
        for alpha, distance in zip(alphas, result.clamp_distances):
            if distance > DEFAULT_TOL_DISC:
                sys.stderr.write(f"warning: offdiag alpha={alpha:.6g}: its spectra at "
                                 f"n={args.grid_size} stray {distance:.4g} outside [0, 1], "
                                 f"past the range band {DEFAULT_TOL_DISC:g}; the grid does "
                                 "not resolve this alpha\n")
    else:
        result = log_growth_diagnostic(args.q, alphas, lam=args.lam,
                                       half_width=args.box_half_width, n=args.box_grid_size,
                                       mass=args.mass, l0=args.l0)
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
        return _DISPATCH[args.command](args)
    except (_UnwritableOutput, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ConvergenceError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        _warn_unconverged(getattr(exc, "points", ()))  # a refused sweep names its points
        sys.stderr.write(f"non-convergence: {exc}\n")
        return 3
    except ValueError as exc:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
