"""Entropy of the truncated operator minus its translation-invariant bulk term.

The reported quantity is

    S = sum_i eta(clip(lambda_i, 0, 1)) - (lam / 2 pi) int eta(exp(-eps*omega(k))) dk,

where lambda_i are the eigenvalues of the discretized interval operator.
The subtraction term uses the exact momentum-space functional calculus of
the translation-invariant operator (its symbol has eigenvalues
{exp(-eps*omega), 0} and eta(0) = 0), so it reduces to a one-dimensional
integral; discretizing it in position space would only add a second,
avoidable source of error. The integral is a fixed composite Gauss-Legendre
sum on dyadic panels (the panel helpers of the cross-block diagnostic's
graded grid), checked by a coarser rule on the same panels. The same sum at
m = 0 gives the integral behind the slope constant, entropy_integral.

Grid sizes double from 128 until the entropy changes by less than 0.5%
or the requested cap is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac_symbols import PhysicalParams
from .discretization import (
    DEFAULT_TOL_DISC,
    GridRule,
    _graded_edges,
    _panel_nodes,
    build_grid,
    check_spectrum_memory,
    operator_eigenvalues,
)
from .errors import ConvergenceError
from .renyi_functions import _LN2, RenyiOrder, _eta_of_log, eta

DEFAULT_N_START = 128
DEFAULT_N_MAX = 4096
DEFAULT_REL_CHANGE = 0.005
# relative accuracy demanded of the bulk-term quadrature
BULK_REL_TOL = 1e-8
# innermost bulk-term panel edge; dyadic panels double from here to x_max
_BULK_FINE = 2.0**-60


@dataclass(frozen=True)
class ClampReport:
    """How far eigenvalues had to be clipped into [0, 1]."""

    count: int
    max_distance: float


@dataclass(frozen=True)
class EntropyResult:
    truncated_trace: float
    subtraction_trace: float
    entropy: float
    clamp_count: int
    grid_size: int
    converged: bool


def entropy_from_eigenvalues(eigenvalues: np.ndarray, order: RenyiOrder):
    """Sum of eta over the clipped spectrum, with a clamp report.

    It applies no range gate (operator_eigenvalues does); it clips what it is given.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    clipped = np.clip(ev, 0.0, 1.0)
    distances = np.abs(ev - clipped)
    report = ClampReport(
        count=int(np.count_nonzero(distances > 0.0)),
        max_distance=float(distances.max()) if ev.size else 0.0,
    )
    return float(np.sum(eta(order, clipped))), report


def _eta_integral(order: RenyiOrder, a: float) -> float:
    """int_0^inf eta(exp(-hypot(x, a))) dx by a checked panel sum.

    The integrand decays like exp(-min(kappa,1) x) and is cut at x_max, where
    it underflows well below BULK_REL_TOL. Dyadic panels resolve the x^kappa
    and x log x behaviour at x = 0 and, when a < ln 2, the turn within
    ~1/kappa of t = 1/2 at x* = sqrt(ln^2 2 - a^2), graded toward x* from
    both sides. The 32-node Gauss-Legendre sum is the value; the 16-node sum
    on the same panels checks it (ConvergenceError past BULK_REL_TOL). eta is
    read from ln t, so the tail stays accurate where exp(-hypot) underflows.
    """
    x_max = max(80.0, 60.0 / min(order.kappa, 1.0)) + a + 5.0
    edges = _graded_edges(x_max, _BULK_FINE)
    if a < _LN2:
        x_star = np.sqrt(_LN2**2 - a * a)
        below = _graded_edges(0.5 * x_star, _BULK_FINE)
        above = x_star + _graded_edges(x_max - x_star, _BULK_FINE)
        # panels narrower than the float spacing at x* collapse and drop out
        edges = np.unique(np.concatenate([below, x_star - below, above]))
    x_fine, w_fine = _panel_nodes(edges, 32)
    x_coarse, w_coarse = _panel_nodes(edges, 16)
    values = _eta_of_log(order, -np.hypot(np.concatenate([x_fine, x_coarse]), a))
    value = float(w_fine @ values[:x_fine.size])
    coarse = float(w_coarse @ values[x_fine.size:])
    if abs(value - coarse) > BULK_REL_TOL * abs(value) + 1e-13:
        raise ConvergenceError(
            f"bulk-term quadrature did not reach rel_tol={BULK_REL_TOL}: value={value}, "
            f"16-node value={coarse}"
        )
    return value


def subtraction_trace(params: PhysicalParams, order: RenyiOrder) -> float:
    """Bulk term (lam / 2 pi) int eta(exp(-eps*omega(k))) dk = lam I(eps*m) / (pi eps).

    I(a) = int_0^inf eta(exp(-hypot(x, a))) dx is _eta_integral in x = eps*k.
    """
    a = params.epsilon * params.mass
    return params.lam * _eta_integral(order, a) / (np.pi * params.epsilon)


def entropy_integral(order: RenyiOrder) -> float:
    """(1/pi^2) int_0^1 eta(t) / (t(1-t)) dt, equal to (1/6)(kappa+1)/kappa.

    With t = exp(-x) and the symmetry of eta about 1/2 it is (2/pi^2) I(0),
    the massless bulk integral _eta_integral.
    """
    return 2.0 * _eta_integral(order, 0.0) / np.pi**2


def _ladder_sizes(n_start: int, n_cap: int) -> list[int]:
    sizes = [min(n_start, n_cap)]
    while sizes[-1] < n_cap:
        sizes.append(min(2 * sizes[-1], n_cap))
    return sizes


def entanglement_entropy(
    params: PhysicalParams,
    order: RenyiOrder,
    n: int = DEFAULT_N_MAX,
    *,
    rule: GridRule = GridRule.GAUSS_LEGENDRE,
) -> EntropyResult:
    """Entropy with the grid-doubling convergence policy, capped at n.

    Grids whose spectrum leaves [-DEFAULT_TOL_DISC, 1 + DEFAULT_TOL_DISC]
    are treated as unresolved and skipped; if no grid up to the cap yields
    an admissible spectrum, ConvergenceError is raised. The result is flagged
    converged once doubling the grid changes the entropy by less than
    DEFAULT_REL_CHANGE. ValueError before any work if the cap's eigensolver
    buffers exceed physical memory.
    """
    if n < 64:
        raise ValueError(f"n must be >= 64, got {n}")
    check_spectrum_memory(n)
    sub = subtraction_trace(params, order)

    prev_entropy = None
    last = None
    converged = False
    for size in _ladder_sizes(DEFAULT_N_START, n):
        grid = build_grid(size, params.lam, rule)
        try:
            eigenvalues = operator_eigenvalues(params, grid)
        except ConvergenceError:
            prev_entropy = None  # this resolution is unusable; restart comparison
            continue
        trace, clamp = entropy_from_eigenvalues(eigenvalues, order)
        entropy_value = trace - sub
        last = (size, trace, entropy_value, clamp)
        tol = DEFAULT_REL_CHANGE * max(abs(entropy_value), 1e-12)
        if prev_entropy is not None and abs(entropy_value - prev_entropy) < tol:
            converged = True
            break
        prev_entropy = entropy_value

    if last is None:
        raise ConvergenceError(
            f"no grid size up to {n} resolves epsilon={params.epsilon} "
            f"(spectrum keeps leaving [-{DEFAULT_TOL_DISC:.0e}, 1+{DEFAULT_TOL_DISC:.0e}])"
        )
    size, trace, entropy_value, clamp = last
    return EntropyResult(
        truncated_trace=trace,
        subtraction_trace=sub,
        entropy=entropy_value,
        clamp_count=clamp.count,
        grid_size=size,
        converged=converged,
    )
