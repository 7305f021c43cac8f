"""Damping-scale sweeps, slope fits, and decomposition diagnostics.

A sweep evaluates the entropy on a log-spaced epsilon grid, fits S against
ln(1/epsilon) by ordinary least squares over the converged points, and
compares the slope with the closed-form constant (1/6)(kappa+1)/kappa.
The intercept absorbs the order-one constant that the asymptotics do not
fix; only the slope carries information.

The diagnostics follow the alpha = 1/epsilon parametrization: the mass
contribution |S(m) - S(0)| / ln(alpha) must decay (the massless entropy is
exactly the diagonal-symbol term), the high-frequency part of the rescaled
symbol must converge uniformly to the limit symbol, and the q = 1/l
quasi-norms of the interval cross blocks must grow no faster than
log(alpha) up to a bounded constant.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dirac_symbols import PhysicalParams, limit_symbol, split_symbol
from .discretization import (
    DEFAULT_BOX_TAIL_TOL,
    GridRule,
    assemble_offdiagonal_truncation,
    build_grid,
    check_spectrum_memory,
    min_box_half_width,
    operator_eigenvalues,
)
from .entropy_pipeline import (
    DEFAULT_N_MAX,
    EntropyResult,
    entanglement_entropy,
    entropy_from_eigenvalues,
    subtraction_trace,
)
from .errors import ConvergenceError
from .renyi_functions import RenyiOrder, theoretical_slope

MIN_SWEEP_POINTS = 6
MIN_CONVERGED_POINTS = 5
MIN_GRID_RATIO = 30.0


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    entropy: float
    converged: bool
    grid_size: int


@dataclass(frozen=True)
class SweepResult:
    points: tuple
    slope: float
    intercept: float
    r_squared: float
    theory_slope: float
    rel_error: float

    def converged_points(self) -> list[SweepPoint]:
        return [p for p in self.points if p.converged]


@dataclass(frozen=True)
class DiagnosticsResult:
    alpha_grid: np.ndarray
    offdiag_ratios: np.ndarray | None = None
    sup_deviations: np.ndarray | None = None
    logq_norms: np.ndarray | None = None


@dataclass(frozen=True)
class BoxSpec:
    """Finite-box parameters for the cross-block quasi-norm diagnostics."""

    lam: float = 1.0
    half_width: float = 8.0
    n: int = 1024
    mass: float = 1.0
    l0: float = 1.0


def _validate_eps_grid(eps_grid: np.ndarray) -> np.ndarray:
    eps = np.asarray(eps_grid, dtype=float)
    if eps.ndim != 1 or eps.size < MIN_SWEEP_POINTS:
        raise ValueError(f"eps_grid needs >= {MIN_SWEEP_POINTS} points, got {eps.size}")
    if np.any(eps <= 0):
        raise ValueError("eps_grid entries must be positive")
    eps = np.sort(eps)[::-1]
    if eps.max() / eps.min() < MIN_GRID_RATIO:
        raise ValueError(f"eps_grid max/min ratio must be >= {MIN_GRID_RATIO}")
    ratios = eps[:-1] / eps[1:]
    if np.max(np.abs(ratios / ratios[0] - 1.0)) > 1e-6:
        raise ValueError("eps_grid must be log-spaced")
    return eps


def _sweep_point(job) -> SweepPoint:
    lam, mass, epsilon, kappa, n_max, rule = job
    try:
        result = entanglement_entropy(
            PhysicalParams(mass=mass, epsilon=epsilon, lam=lam),
            RenyiOrder(kappa),
            n=n_max,
            rule=GridRule(rule),
        )
    except ConvergenceError:
        # no admissible grid up to the cap: an unconverged point, counted
        # against the minimum-converged-points requirement
        return SweepPoint(epsilon=epsilon, entropy=float("nan"), converged=False, grid_size=n_max)
    return SweepPoint(
        epsilon=epsilon,
        entropy=result.entropy,
        converged=result.converged,
        grid_size=result.grid_size,
    )


def _fit_line(x: np.ndarray, y: np.ndarray):
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(residuals**2)) / ss_tot if ss_tot > 0 else 0.0
    return float(slope), float(intercept), r_squared


def sweep(
    params_base: PhysicalParams,
    order: RenyiOrder,
    eps_grid,
    *,
    n_max: int = DEFAULT_N_MAX,
    rule: GridRule = GridRule.GAUSS_LEGENDRE,
    jobs: int = 1,
) -> SweepResult:
    """Entropy over a log-spaced epsilon grid with an OLS slope fit.

    Points are computed independently (optionally in separate processes)
    and aggregated in decreasing-epsilon order; the fit uses only converged
    points and requires at least five of them. ValueError before any point
    if min(jobs, points) processes at the cap n_max would exceed physical
    memory.
    """
    eps = _validate_eps_grid(eps_grid)
    check_spectrum_memory(n_max, min(jobs, eps.size))
    jobs_list = [
        (params_base.lam, params_base.mass, float(e), order.kappa, n_max, rule.value)
        for e in eps
    ]
    if jobs > 1 and len(jobs_list) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            points = list(pool.map(_sweep_point, jobs_list))
    else:
        points = [_sweep_point(job) for job in jobs_list]

    fit_points = [p for p in points if p.converged]
    if len(fit_points) < MIN_CONVERGED_POINTS:
        raise ConvergenceError(
            f"only {len(fit_points)} of {len(points)} sweep points converged; "
            f"need {MIN_CONVERGED_POINTS}"
        )
    x = np.array([np.log(1.0 / p.epsilon) for p in fit_points])
    y = np.array([p.entropy for p in fit_points])
    slope, intercept, r_squared = _fit_line(x, y)
    theory = theoretical_slope(order)
    return SweepResult(
        points=tuple(points),
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        theory_slope=theory,
        rel_error=abs(slope - theory) / theory,
    )


def matched_grid_entropy(params: PhysicalParams, order: RenyiOrder, n: int) -> float:
    """Single-grid Gauss-Legendre entropy without the spectral-range gate.

    Meant for matched-grid differences: at fixed n the discretization error
    largely cancels between two kernels that differ by a smooth (mass)
    perturbation, even at epsilon too small for the grid to resolve alone.
    """
    grid = build_grid(n, params.lam)
    eigenvalues = operator_eigenvalues(params, grid, validate=False)
    trace, _ = entropy_from_eigenvalues(eigenvalues, order, enforce_range=False)
    return trace - subtraction_trace(params, order)


def _high_low_sup_deviation(alpha: float, mass: float) -> float:
    """Max spectral-norm distance of the high-frequency part from the limit."""
    split = split_symbol(alpha, mass)
    threshold = split.threshold
    offsets = np.concatenate([[0.0], np.geomspace(1e-9, 4.0 * threshold + 30.0, 400)])
    worst = 0.0
    for off in offsets:
        for sign in (1.0, -1.0):
            xi = sign * (threshold + off)
            dev = np.linalg.norm(split.high_part(xi) - limit_symbol(xi), 2)
            worst = max(worst, float(dev))
    return worst


def offdiagonal_diagnostic(
    lam: float,
    order: RenyiOrder,
    mass: float,
    alpha_grid,
    *,
    n: int = DEFAULT_N_MAX,
) -> DiagnosticsResult:
    """Mass contribution to the entropy, normalized by log(alpha).

    For each alpha = 1/epsilon the massive and massless entropies are
    evaluated on the same grid and differenced; the massless entropy is the
    diagonal-symbol term exactly, so the ratio |S(m) - S(0)| / ln(alpha)
    isolates the off-diagonal contribution, which must trend to zero.
    At mass = 0 the difference vanishes identically.
    """
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    alphas = np.asarray(alpha_grid, dtype=float)
    if np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha_grid must be increasing")
    if alphas[0] <= np.e**2:
        raise ValueError("alpha_grid entries must exceed e^2")

    ratios = []
    sup_devs = []
    for alpha in alphas:
        eps = 1.0 / alpha
        s_mass = matched_grid_entropy(PhysicalParams(mass=mass, epsilon=eps, lam=lam), order, n)
        s_zero = matched_grid_entropy(PhysicalParams(mass=0.0, epsilon=eps, lam=lam), order, n)
        ratios.append(abs(s_mass - s_zero) / np.log(alpha))
        sup_devs.append(_high_low_sup_deviation(alpha, mass))
    return DiagnosticsResult(
        alpha_grid=alphas,
        offdiag_ratios=np.array(ratios),
        sup_deviations=np.array(sup_devs),
    )


def log_growth_diagnostic(q: float, alpha_grid, box: BoxSpec = BoxSpec()) -> DiagnosticsResult:
    """q = 1/l quasi-norms of the interval cross blocks along an alpha grid.

    Computes ||restrict * Op(a_alpha) * (1 - restrict)||_q^q with
    a_alpha(k) = exp(-(l0/alpha) omega(k)); the ratio to log(alpha) must stay
    bounded (an upper-bound property, not an exact rate). Singular values
    s <= s_1 * max(block.shape) * eps_machine are left out of the sum.
    """
    l = round(1.0 / q)
    if abs(1.0 / q - l) > 1e-9 or l not in (2, 3, 4):
        raise ValueError(f"q must be 1/l with l in {{2, 3, 4}}, got {q}")
    alphas = np.asarray(alpha_grid, dtype=float)
    if np.any(alphas <= 1.0):
        raise ValueError("alpha_grid entries must exceed 1")
    if alphas.max() / alphas.min() < 100.0 * (1.0 - 1e-9):
        raise ValueError("alpha_grid must span at least two decades")

    all_params = [PhysicalParams(mass=box.mass, epsilon=box.l0 / alpha, lam=box.lam)
                  for alpha in alphas]
    # the box-tail guard is cheap; fail on a narrow box before the first SVD
    width = max(min_box_half_width(params, box.half_width) for params in all_params)
    if width > box.half_width:
        raise ValueError(
            f"box half-width {box.half_width:g} leaves more than {DEFAULT_BOX_TAIL_TOL:g} "
            f"of the kernel's mass beyond the box; the smallest width "
            f"{box.half_width:g} * 2^k that passes on this alpha grid is {width:g}"
        )
    norms = []
    for params in all_params:
        block = assemble_offdiagonal_truncation(params, box.half_width, box.n)
        s = np.linalg.svd(block, compute_uv=False)
        # values at the rounding floor are noise that s**q with q < 1 magnifies
        s = s[s > s[0] * max(block.shape) * np.finfo(float).eps]
        norms.append(float(np.sum(s**q)))
    return DiagnosticsResult(alpha_grid=alphas, logq_norms=np.array(norms))
