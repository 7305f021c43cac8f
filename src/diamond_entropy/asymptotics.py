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

The cross block (inside x outside) of the damped scalar symbol exp(-eps
omega(k)) is built here on a graded grid. Its kernel, F0 / 2pi = 2 Re K11,
twice the first part kernel_blocks returns, comes from there, so the closed
form is written only in kernel_eval. min_box_half_width checks the box, by
the bulk term's checked panel sums of k^2. CrossBlockLayout holds one
alpha's panels and nodes per panel at a budget; check_cross_block_budget
reads it for the node budget and block memory of a whole alpha grid, apart
from the assembly, and cross_block_nodes for the nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .dirac_symbols import PhysicalParams, limit_symbol, rescaled_symbol
from .discretization import (
    check_memory,
    check_spectrum_memory,
    operator_eigenvalues,
    share_cpus,
)
from .entropy_pipeline import (
    DEFAULT_N_MAX,
    EntropyResult,
    entanglement_entropy,
    entropy_from_eigenvalues,
    subtraction_trace,
)
from .errors import ConvergenceError
from .kernel_eval import kernel_blocks
from .quadrature import GridRule, build_grid, checked_panel_sum, graded_edges, panel_nodes
from .renyi_functions import RenyiOrder, theoretical_slope
from .schatten_toolkit import power_sum

MIN_SWEEP_POINTS = 6
MIN_CONVERGED_POINTS = 5
MIN_GRID_RATIO = 30.0
BOX_TAIL_TOL = 1e-6
# the box tail's last panel edge, L 2^60, stays 16 times below the largest
# float, so the panel midpoints and 2 pi u in the kernel remain finite
MAX_BOX_HALF_WIDTH = np.finfo(float).max / 2.0**64
# peak bytes per element of a log-growth cross block, its assembly and SVD
# together: 40 at mass 0 and 82-86 at mass 1 (tracemalloc, and ru_maxrss in a
# fresh process, on blocks of 330 x 660 to 1968 x 2496)
_CROSS_BLOCK_BYTES = 96


@dataclass(frozen=True)
class SweepResult:
    points: tuple  # one EntropyResult per epsilon, failed points included
    slope: float
    intercept: float
    r_squared: float
    theory_slope: float
    rel_error: float

    def converged_points(self) -> list[EntropyResult]:
        return [p for p in self.points if p.converged]


@dataclass(frozen=True)
class DiagnosticsResult:
    alpha_grid: np.ndarray
    offdiag_ratios: np.ndarray | None = None
    sup_deviations: np.ndarray | None = None
    clamp_distances: np.ndarray | None = None
    logq_norms: np.ndarray | None = None


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


def _sweep_point(order: RenyiOrder, n_max: int, rule: GridRule, params: PhysicalParams,
                 partner: PhysicalParams | None = None) -> EntropyResult:
    try:
        return entanglement_entropy(params, order, n=n_max, rule=rule, partner=partner)
    except ConvergenceError as exc:
        # no admissible grid up to the cap, or a result below the floor: an
        # unconverged point, counted against the minimum-converged-points
        # requirement
        return EntropyResult(params=params, truncated_trace=np.nan, subtraction_trace=np.nan,
                             entropy=np.nan, clamp_count=0, grid_size=n_max, converged=False,
                             reason=str(exc))


def _process_pool(max_workers: int, initializer, initargs):
    """concurrent.futures.ProcessPoolExecutor, imported here so that only a
    sweep that builds a pool loads the process machinery (multiprocessing,
    socket, subprocess, logging), which every other run would pay for at
    import."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers, initializer=initializer,
                               initargs=initargs)


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
    and aggregated in decreasing-epsilon order, one EntropyResult each; the
    fit uses only converged points and requires at least five of them, or
    raises ConvergenceError holding the points. The worker processes number
    min(jobs, points, spectra at the cap n_max that fit in memory at once);
    ValueError before any point if check_spectrum_memory refuses n_max: below
    the smallest cap, or not even one spectrum fits. Each worker is told the
    pool size (share_cpus), which the thread rule of the discretization
    module docstring divides the CPUs by. The pool is handed the points
    smallest epsilon first, so the costliest spectra do not start last, and
    its results are put back in decreasing-epsilon order. Without a pool,
    point k is given point k + 1 as its partner (entanglement_entropy), so at
    mass 0 that point's spectra may come from the other triangle of point k's
    buffers and differ from a pool's in the last digits.
    """
    eps = _validate_eps_grid(eps_grid)
    workers = min(jobs, eps.size, check_spectrum_memory(n_max))
    point = functools.partial(_sweep_point, order, n_max, rule)
    all_params = [replace(params_base, epsilon=float(e)) for e in eps]
    if workers > 1:
        with _process_pool(max_workers=workers, initializer=share_cpus,
                           initargs=(workers,)) as pool:
            points = list(pool.map(point, all_params[::-1]))[::-1]
    else:
        # each ladder also solves the next point's rungs where it can (at
        # mass 0), two spectra in one buffer
        partners = [*all_params[1:], None]
        points = [point(params, partner) for params, partner in zip(all_params, partners)]

    fit_points = [p for p in points if p.converged]
    if len(fit_points) < MIN_CONVERGED_POINTS:
        raise ConvergenceError(f"only {len(fit_points)} of {len(points)} sweep points "
                               f"converged; need {MIN_CONVERGED_POINTS}", points=tuple(points))
    x = np.array([np.log(1.0 / p.params.epsilon) for p in fit_points])
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


def matched_grid_entropy(params: PhysicalParams, order: RenyiOrder, n: int):
    """Single-grid Gauss-Legendre entropy and its ClampReport, with no range gate.

    Meant for matched-grid differences: at fixed n the discretization error
    largely cancels between two kernels that differ by a smooth (mass)
    perturbation, but only where the grid nearly resolves epsilon, which a
    max_distance within the range gate's band shows.
    ValueError before the spectrum if check_spectrum_memory refuses n.
    """
    check_spectrum_memory(n)
    grid = build_grid(n, params.lam)
    eigenvalues = operator_eigenvalues(params, grid, validate=False)
    trace, clamp = entropy_from_eigenvalues(eigenvalues, order)
    return trace - subtraction_trace(params, order), clamp


def _high_low_sup_deviation(alpha: float, mass: float) -> float:
    """Max spectral-norm distance of the rescaled symbol from the limit symbol
    on |xi| >= ln(alpha), the high-frequency part of the symbol."""
    threshold = np.log(alpha)
    offsets = np.concatenate([[0.0], np.geomspace(1e-9, 4.0 * threshold + 30.0, 400)])
    xis = np.concatenate([threshold + offsets, -(threshold + offsets)])
    return max(float(np.linalg.norm(rescaled_symbol(alpha, mass, xi) - limit_symbol(xi), 2))
               for xi in xis)


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
    isolates the off-diagonal contribution, which must trend to zero. The grid
    error cancels only where n nearly resolves epsilon: clamp_distances, the
    larger max_distance of each alpha's spectra, exceeds DEFAULT_TOL_DISC where not.
    At mass = 0 the difference vanishes identically. ValueError before the
    first spectrum on bad input, n below the smallest grid-size cap included,
    or eigensolver buffers beyond the memory check_memory allows.
    """
    check_spectrum_memory(n)
    alphas = np.asarray(alpha_grid, dtype=float)
    if np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha_grid must be increasing")
    if alphas[0] <= np.e**2:
        raise ValueError("alpha_grid entries must exceed e^2")
    all_params = [(PhysicalParams(mass=mass, epsilon=1.0 / alpha, lam=lam),
                   PhysicalParams(mass=0.0, epsilon=1.0 / alpha, lam=lam)) for alpha in alphas]

    ratios, sup_devs, distances = [], [], []
    for alpha, (massive, massless) in zip(alphas, all_params):
        s_mass, c_mass = matched_grid_entropy(massive, order, n)
        s_zero, c_zero = matched_grid_entropy(massless, order, n)
        ratios.append(abs(s_mass - s_zero) / np.log(alpha))
        sup_devs.append(_high_low_sup_deviation(alpha, mass))
        distances.append(max(c_mass.max_distance, c_zero.max_distance))
    return DiagnosticsResult(alpha_grid=alphas, offdiag_ratios=np.array(ratios),
                             sup_deviations=np.array(sup_devs),
                             clamp_distances=np.array(distances))


def _scalar_kernel(params: PhysicalParams, u: np.ndarray) -> np.ndarray:
    """Position kernel of exp(-eps omega(k)): F0 / 2pi = 2 Re K11 = 2a."""
    return 2.0 * kernel_blocks(params, u)[0]


def _box_tail_fraction(params: PhysicalParams, box_half_width: float) -> float:
    """sqrt(tail / (inside + tail)), with inside and tail int k(u)^2 du over (0, L)
    and (L, inf), L = box_half_width, each a panel sum checked to BOX_TAIL_TOL:
    inside on panels doubling from eps/2, the tail on L 2^k, k <= 60 (past them
    the massless k^2 ~ u^-4 leaves 2^-180 of it). The tail's check also allows
    BOX_TAIL_TOL^3 of the inside mass, too little to move the gate. The
    fraction does not see the kernel's scale, so k is taken times pi eps, one
    over the massless k(0), which bounds |k| at every mass: its square stays
    finite where k(0)^2 would overflow (eps below about 1e-154)."""
    def k2(u):
        return (math.pi * params.epsilon * _scalar_kernel(params, u)) ** 2

    inside = checked_panel_sum(k2, graded_edges(box_half_width, params.epsilon / 2.0),
                               BOX_TAIL_TOL, 0.0, "box-tail quadrature")
    tail = checked_panel_sum(k2, box_half_width * 2.0 ** np.arange(61.0), BOX_TAIL_TOL,
                             BOX_TAIL_TOL**3 * inside, "box-tail quadrature")
    return math.sqrt(tail / (inside + tail)) if tail else 0.0


def min_box_half_width(params: PhysicalParams, box_half_width: float) -> float:
    """Smallest box_half_width * 2**k (k >= 0) beyond which _box_tail_fraction's
    checked panel sums find at most BOX_TAIL_TOL of the kernel's norm (more
    would bias the cross block; a NaN fraction fails too); ConvergenceError if
    a sum is unresolved, ValueError once a width exceeds MAX_BOX_HALF_WIDTH."""
    if not 0 < box_half_width < math.inf:
        raise ValueError("box_half_width must be positive and finite")
    width = box_half_width
    while True:
        if width > MAX_BOX_HALF_WIDTH:
            raise ValueError(f"box half-width {width:g} is too large (at most "
                             f"{MAX_BOX_HALF_WIDTH:.4g}): the box-tail panels out to "
                             "2^60 times it would overflow")
        if _box_tail_fraction(params, width) <= BOX_TAIL_TOL:
            return width
        width *= 2.0


class CrossBlockLayout:
    """The panels of one cross block: row_half over [0, lam/2] (each half of
    the rows) and col_edges over [0, box_half_width] (each side of the
    columns), graded down to eps/2, and their count, panels."""

    def __init__(self, params: PhysicalParams, box_half_width: float):
        fine = params.epsilon / 2.0
        self.lam = params.lam
        self.row_half = graded_edges(params.lam / 2.0, fine)
        self.col_edges = graded_edges(box_half_width, fine)
        self.panels = 2 * (self.row_half.size - 1) + 2 * (self.col_edges.size - 1)

    def per(self, n: int) -> int:
        """Nodes per panel of a budget of n nodes, up to 24; ValueError below 4."""
        if n < 4 * self.panels:
            raise ValueError(f"node budget n={n} too small: need at least {4 * self.panels} "
                             f"for {self.panels} graded panels")
        return min(24, n // self.panels)

    def elements(self, n: int) -> int:
        """Rows times columns of the block cross_block_nodes builds at budget n.
        Below 4 nodes per panel a budget costs what 4 cost: if those do not
        fit, none does."""
        per = self.per(max(n, 4 * self.panels))
        return 4 * (self.row_half.size - 1) * (self.col_edges.size - 1) * per**2


def check_cross_block_budget(layouts, n: int) -> None:
    """ValueError unless n nodes give each cross block of layouts 4 nodes per
    panel and its assembly and SVD (_CROSS_BLOCK_BYTES per element) fit in the
    memory check_memory allows. Nodes per panel are floored per block, so the
    largest block at a budget need not be the one with the most panels."""
    max(layouts, key=lambda layout: layout.panels).per(n)  # names the most panels
    check_memory(lambda budget: max(_CROSS_BLOCK_BYTES * layout.elements(budget)
                                    for layout in layouts), n, "--box-grid-size")


def cross_block_nodes(layout: CrossBlockLayout, n: int):
    """(rows, row weights, columns, column weights) of the cross block: rows
    inside (0, lam), columns in [-L, 0) and (lam, lam + L], L = box_half_width.
    n is the total node budget (the CLI's --box-grid-size), used up to 24
    nodes per panel; below 4, ValueError. Its memory is not checked here."""
    per = layout.per(n)
    x_l, w_l = panel_nodes(layout.row_half, per)
    x_rows = np.concatenate([x_l, layout.lam - x_l[::-1]])
    w_rows = np.concatenate([w_l, w_l[::-1]])

    y_out, w_out = panel_nodes(layout.col_edges, per)
    y_cols = np.concatenate([-y_out[::-1], layout.lam + y_out])
    w_cols = np.concatenate([w_out[::-1], w_out])
    return x_rows, w_rows, y_cols, w_cols


def assemble_offdiagonal_truncation(params: PhysicalParams, nodes) -> np.ndarray:
    """Weight-symmetrized cross block of the damped symbol exp(-eps omega(k))
    on the nodes from cross_block_nodes."""
    x_rows, w_rows, y_cols, w_cols = nodes
    kvals = _scalar_kernel(params, x_rows[:, None] - y_cols[None, :])
    return np.sqrt(w_rows)[:, None] * kvals * np.sqrt(w_cols)[None, :]


def log_growth_diagnostic(q: float, alpha_grid, *, lam: float = 1.0, half_width: float = 8.0,
                          n: int = 1024, mass: float = 1.0, l0: float = 1.0) -> DiagnosticsResult:
    """q = 1/l quasi-norms of the interval cross blocks along an alpha grid.

    Computes ||restrict * Op(a_alpha) * (1 - restrict)||_q^q with
    a_alpha(k) = exp(-(l0/alpha) omega(k)) on the box [-half_width,
    half_width] with a budget of n nodes per cross block; the ratio to
    log(alpha) must stay bounded (an upper-bound property, not an exact
    rate). The sum is power_sum's, which leaves out the singular values at the
    rounding floor. ValueError before the first node set if any alpha's box
    tail, node budget or block memory (check_cross_block_budget) fails.
    """
    if not (np.isfinite(q) and q > 0 and any(abs(1.0 / q - l) <= 1e-9 for l in (2, 3, 4))):
        raise ValueError(f"q must be 1/l with l in {{2, 3, 4}}, got {q}")
    alphas = np.asarray(alpha_grid, dtype=float)
    if np.any(alphas <= 1.0):
        raise ValueError("alpha_grid entries must exceed 1")
    if alphas.max() / alphas.min() < 100.0 * (1.0 - 1e-9):
        raise ValueError("alpha_grid must span at least two decades")

    all_params = [PhysicalParams(mass=mass, epsilon=l0 / alpha, lam=lam) for alpha in alphas]
    width = max(min_box_half_width(params, half_width) for params in all_params)
    if width > half_width:
        raise ValueError(
            f"box half-width {half_width:g} leaves more than {BOX_TAIL_TOL:g} "
            f"of the kernel's mass beyond the box; the smallest width "
            f"{half_width:g} * 2^k that passes on this alpha grid is {width:g}"
        )
    layouts = [CrossBlockLayout(params, half_width) for params in all_params]
    check_cross_block_budget(layouts, n)
    norms = []
    for params, layout in zip(all_params, layouts):
        block = assemble_offdiagonal_truncation(params, cross_block_nodes(layout, n))
        s = np.linalg.svd(block, compute_uv=False)
        norms.append(float(power_sum(s, q, max(block.shape))))
        del block  # so the next assembly does not peak on top of this block
    return DiagnosticsResult(alpha_grid=alphas, logq_norms=np.array(norms))
