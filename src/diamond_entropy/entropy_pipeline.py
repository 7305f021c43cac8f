"""Entropy of the truncated operator minus its translation-invariant bulk term.

The reported quantity is

    S = sum_i eta(clip(lambda_i, 0, 1)) - (lam / 2 pi) int eta(exp(-eps*omega(k))) dk,

where lambda_i are the eigenvalues of the discretized interval operator.
The subtraction term uses the exact momentum-space functional calculus of
the translation-invariant operator (its symbol has eigenvalues
{exp(-eps*omega), 0} and eta(0) = 0), so it reduces to a one-dimensional
integral; discretizing it in position space would only add a second,
avoidable source of error. The integral is a fixed composite Gauss-Legendre
sum on dyadic panels checked by a coarser rule on the same panels, the one
the cross-block diagnostic's box gate uses. The same sum at m = 0 gives the
integral behind the slope constant, entropy_integral, and from x(delta) > 0
instead of 0 both parts of error_bound: the bulk term's tail above
x(delta) = sqrt(ln^2(1/delta) - (eps m)^2), the bulk mass of the modes whose
eigenvalue lies below delta, taken by the bulk term's quadrature. Its
rounding part takes delta = 2N u, the eigensolver's rounding band (u =
2^-53); its discretization part takes delta = max(delta_N, 2N u), where
delta_N = exp(-2N asinh(2 eps / lam)) is the resolution of an N-node
Gauss-Legendre grid.

The ladder's grid sizes are the requested cap and its halvings down to the
smallest one of at least 128, or down to half the cap below a cap of 256.
Each size is 2N or 2N + 1 after the size N before it, so each 0.5% test
compares N with about 2N: a cap of 128 * 2^k (k >= 1) climbs 128, 256, ...,
the cap. The ladder stops once the entropy changes by less than 0.5% or at
the cap. Below kappa = 1 the rung it reports, converged or not, must also
pass the floor bound, error_bound's rounding part: the bulk mass below the
rounding band may not exceed that rung's tolerance, or double precision,
not the spectrum, sets the digit, and ConvergenceError says so. Only the
rounding part can refuse a result. An unconverged result's reason ends with
the discretization part and whether it lies within that tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dirac_symbols import PhysicalParams
from .discretization import check_spectrum_memory, operator_eigenvalues
from .errors import ConvergenceError
from .quadrature import GridRule, build_grid, checked_panel_sum, graded_edges
from .renyi_functions import LN2, RenyiOrder, eta, eta_of_log

DEFAULT_N_START = 128
DEFAULT_N_MAX = 4096
DEFAULT_REL_CHANGE = 0.005
# relative accuracy demanded of the bulk-term quadrature
BULK_REL_TOL = 1e-8
# innermost bulk-term panel edge; dyadic panels double from here to x_max
_BULK_FINE = 2.0**-60


def _rounding_band(size: int) -> float:
    """size u (u = 2^-53), the rounding band of a dense symmetric eigensolve
    of size eigenvalues (2N for N nodes), within which the sign of an
    eigenvalue near 0 or 1 is noise."""
    return size * 2.0**-53


@dataclass(frozen=True)
class ClampReport:
    """How far eigenvalues had to be clipped into [0, 1].

    count takes only the eigenvalues more than the rounding band 2N u outside
    [0, 1] (the 2N eigenvalues of N nodes); max_distance takes every clipped
    eigenvalue.
    """

    count: int
    max_distance: float


@dataclass(frozen=True)
class EntropyResult:
    """One rung's entropy at params; reason, empty once converged, says why not."""

    params: PhysicalParams
    truncated_trace: float
    subtraction_trace: float
    entropy: float
    clamp_count: int
    grid_size: int
    converged: bool
    reason: str = ""


@dataclass(frozen=True)
class ErrorBound:
    """error_bound's two parts: the bulk mass below the rounding band 2N u,
    and below the grid's resolution delta_N where that lies higher."""

    rounding: float
    discretization: float


def entropy_from_eigenvalues(eigenvalues: np.ndarray, order: RenyiOrder):
    """Sum of eta over the clipped spectrum, with a clamp report.

    It applies no range gate (operator_eigenvalues does); it clips what it is
    given, and raises ConvergenceError on a NaN or infinite eigenvalue.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    clipped = np.clip(ev, 0.0, 1.0)
    distances = np.abs(ev - clipped)
    max_distance = float(distances.max()) if ev.size else 0.0
    if not np.isfinite(max_distance):  # max propagates a NaN
        raise ConvergenceError(f"spectrum holds a non-finite eigenvalue ({max_distance})")
    report = ClampReport(
        count=int(np.count_nonzero(distances > _rounding_band(ev.size))),
        max_distance=max_distance,
    )
    return float(np.sum(eta(order, clipped))), report


def _eta_integral(order: RenyiOrder, a: float, x_lo: float = 0.0) -> float:
    """int_{x_lo}^inf eta(exp(-hypot(x, a))) dx by a checked panel sum.

    The integrand decays like exp(-min(kappa,1) x) and is cut where it has
    underflowed well below BULK_REL_TOL. Dyadic panels double from x_lo to the
    cut, from _BULK_FINE at x_lo = 0 to resolve the x^kappa and x log x
    behaviour there, and from width 1 at any other x_lo, where the integrand is
    smooth. When a < ln 2 and x* = sqrt(ln^2 2 - a^2) lies above x_lo, the
    turn within ~1/kappa of t = 1/2 at x* is graded toward from both sides
    down to 1024 ulps of x*. checked_panel_sum takes the 32-node
    Gauss-Legendre sum and checks it by the 16-node one (ConvergenceError past
    BULK_REL_TOL). eta is read from ln t, so the tail stays accurate where
    exp(-hypot) underflows.
    """
    x_max = max(80.0, 60.0 / min(order.kappa, 1.0)) + a + 5.0
    first = _BULK_FINE if x_lo == 0.0 else 1.0
    edges = x_lo + graded_edges(x_max - x_lo, first)
    if a < LN2 and (x_star := np.sqrt(LN2**2 - a * a)) > x_lo:
        # the grading toward x* stops at 1024 ulps of it: the outermost of 32
        # Gauss-Legendre nodes sits 0.0028 half-widths inside its panel, so
        # narrower panels round nodes of neighbouring panels onto one another
        fine = 1024.0 * np.spacing(x_star)
        mid = x_lo + 0.5 * (x_star - x_lo)
        below = x_lo + graded_edges(mid - x_lo, first)
        # mid >= x*/2, so x* - mid is exact and x* - toward ends on mid
        toward = graded_edges(x_star - mid, fine)
        above = x_star + graded_edges(x_max - x_star, fine)
        edges = np.sort(np.concatenate([below, x_star - toward, above]))
        # mid and x* each end two of the gradings; keep one copy of each
        edges = edges[np.concatenate(([True], edges[1:] > edges[:-1]))]
    return checked_panel_sum(lambda x: eta_of_log(order, -np.hypot(x, a)), edges,
                             BULK_REL_TOL, 0.0, "bulk-term quadrature")


def error_bound(params: PhysicalParams, order: RenyiOrder, n: int) -> ErrorBound:
    """How far the entropy of an N = n node spectrum can lie from the truth.

    Each part is the bulk term's tail (lam / (pi eps)) int_{x(delta)}^inf
    eta(exp(-hypot(x, eps m))) dx, by _eta_integral, and at x(delta) = 0 the
    bulk term itself. rounding (delta = 2N u): an N-node spectrum carries
    rounding noise in place of the modes below delta, so no entropy at N is
    known to better than this. It grows with N, and it matters only where
    kappa < 1: eta(t) ~ t^kappa / (1 - kappa) at 0. discretization (delta =
    max(delta_N, 2N u)): Gauss-Legendre errors on an integrand analytic in
    the strip of half-width eps about the interval fall as delta_N (F.
    Bornemann, Math. Comp. 79 (2010) 871), so the grid resolves no mode below it.
    """
    a = params.epsilon * params.mass
    lam, eps = float(params.lam), float(params.epsilon)
    log_rounding = -math.log(_rounding_band(2 * n))
    log_resolution = min(2 * n * math.asinh(2 * eps / lam), log_rounding)

    def tail(log_inv_delta):
        x_delta = math.sqrt(max(0.0, log_inv_delta**2 - a * a))
        return lam * _eta_integral(order, a, x_delta) / (np.pi * eps)

    return ErrorBound(rounding=tail(log_rounding), discretization=tail(log_resolution))


def subtraction_trace(params: PhysicalParams, order: RenyiOrder) -> float:
    """Bulk term (lam / 2 pi) int eta(exp(-eps*omega(k))) dk = lam I(eps*m) / (pi eps).

    I(a) = int_0^inf eta(exp(-hypot(x, a))) dx is _eta_integral in x = eps*k.
    ConvergenceError if the term is not finite (eps too small for a double).
    """
    a = params.epsilon * params.mass
    # Python float arithmetic: an overflow gives inf, with no warning
    value = float(params.lam) * float(_eta_integral(order, a)) / (np.pi * float(params.epsilon))
    if not math.isfinite(value):
        raise ConvergenceError(f"bulk term is not finite at epsilon={params.epsilon} "
                               f"(lambda={params.lam})")
    return value


def entropy_integral(order: RenyiOrder) -> float:
    """(1/pi^2) int_0^1 eta(t) / (t(1-t)) dt, equal to (1/6)(kappa+1)/kappa.

    With t = exp(-x) and the symmetry of eta about 1/2 it is (2/pi^2) I(0),
    the massless bulk integral _eta_integral.
    """
    return 2.0 * _eta_integral(order, 0.0) / np.pi**2


def _ladder_sizes(n_start: int, n_cap: int) -> list[int]:
    """n_cap halved k = max(1, floor(log2(n_cap / n_start))) times, smallest
    first: each rung is 2N or 2N + 1 for the one before it."""
    k = max(1, (n_cap // n_start).bit_length() - 1)
    return [n_cap >> i for i in range(k, -1, -1)]


def entanglement_entropy(
    params: PhysicalParams,
    order: RenyiOrder,
    n: int = DEFAULT_N_MAX,
    *,
    rule: GridRule = GridRule.GAUSS_LEGENDRE,
    partner: PhysicalParams | None = None,
) -> EntropyResult:
    """Entropy with the grid-doubling convergence policy, capped at n.

    Grids whose spectrum leaves [-DEFAULT_TOL_DISC, 1 + DEFAULT_TOL_DISC]
    (discretization's range gate) or whose eigensolve fails are treated as
    unresolved and skipped; if no grid up to the cap yields an admissible
    spectrum, ConvergenceError is raised with the last grid's reason. The
    ladder builds one result per admissible rung, flagged converged when the
    entropy moved by less than DEFAULT_REL_CHANGE from the rung just before
    it, if that one was admissible (else its reason names the cap), and
    reports the first converged result or else the last, whose reason ends
    with error_bound's discretization part and whether it lies within the
    tolerance DEFAULT_REL_CHANGE |S|. Where kappa < 1, ConvergenceError
    instead if the reported rung's rounding part exceeds that tolerance,
    converged or not.
    ValueError before any work if check_spectrum_memory refuses the cap:
    below the smallest cap, or its eigensolver buffers beyond the memory
    check_memory allows. partner, the point to be computed next, goes to
    every rung's operator_eigenvalues, which at mass 0 solves its spectrum on
    the same grid beside this one's.
    """
    check_spectrum_memory(n)
    sub = subtraction_trace(params, order)

    prev_entropy = result = None
    for size in _ladder_sizes(DEFAULT_N_START, n):
        grid = build_grid(size, params.lam, rule)
        try:
            eigenvalues = operator_eigenvalues(params, grid, partner=partner)
        except ConvergenceError as exc:
            prev_entropy = None  # this resolution is unusable; restart comparison
            rejected = f"n = {size}: {exc}"
            continue
        trace, clamp = entropy_from_eigenvalues(eigenvalues, order)
        entropy_value = trace - sub
        # only an admissible rung sets tol, so after the loop it is the reported rung's
        tol = DEFAULT_REL_CHANGE * max(abs(entropy_value), 1e-12)
        converged = prev_entropy is not None and abs(entropy_value - prev_entropy) < tol
        result = EntropyResult(
            params=params, truncated_trace=trace, subtraction_trace=sub, entropy=entropy_value,
            clamp_count=clamp.count, grid_size=size, converged=converged)
        if result.converged:
            break
        prev_entropy = entropy_value

    if result is None:
        raise ConvergenceError(
            f"no grid size up to {n} resolves epsilon={params.epsilon} (last at {rejected})"
        )
    if result.converged and order.kappa >= 1.0:
        return result
    bound = error_bound(params, order, result.grid_size)
    if order.kappa < 1.0 and bound.rounding > tol:
        raise ConvergenceError(
            f"n = {result.grid_size}: its floor bound B = {bound.rounding:.3g}, the bulk mass "
            f"below the rounding band, exceeds the tolerance {tol:.3g}: double precision "
            "cannot give this entropy")
    if result.converged:
        return result
    within = "within" if bound.discretization <= tol else "above"
    return replace(
        result, reason=f"not converged at the grid-size cap {n}; reporting n={result.grid_size}; "
                       f"error bound {bound.discretization:.3g}, {within} the tolerance {tol:.3g}")
