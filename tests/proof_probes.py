"""Companions to the paper's lemmas that no pipeline step or subcommand uses.

They probe the analytic inputs of the proof rather than compute the entropy:
the damped symbol exp(-eps*omega) E_- at physical scale and the low-frequency
remainder of the symbol split, closed-form derivatives of eta and a fit of
its endpoint exponent gamma, Schatten (quasi-)norms and the ratio that
realizes the constant of the spectral-compression bound, and the comparison
of fitted slopes across masses. Only the tests call them, so they live here
beside oracle.py and are not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from diamond_entropy import (
    DiamondEntropyError,
    PhysicalParams,
    RenyiOrder,
    eta,
    limit_symbol,
    omega,
    rescaled_symbol,
    sweep,
    theoretical_slope,
)
from diamond_entropy.asymptotics import SweepResult, _fit_line
from diamond_entropy.dirac_symbols import _negative_projection_total
from diamond_entropy.renyi_functions import NEAR_ONE_BAND


class VacuousBoundError(DiamondEntropyError):
    """A bound check was requested where the bounding quantity vanishes."""


class EstimationError(DiamondEntropyError):
    """A numerical estimate came out unusable (e.g. a non-positive exponent)."""


def regularized_symbol(params: PhysicalParams, k: float) -> np.ndarray:
    """Damped negative-frequency symbol exp(-eps*omega(k)) E_-(k).

    Eigenvalues are {exp(-eps*omega(k)), 0}, so the symbol is a contraction.
    """
    damping = np.exp(-params.epsilon * omega(k, params.mass))
    return damping * _negative_projection_total(k, params.mass)


def low_part(alpha: float, mass: float, k: float) -> np.ndarray:
    """Low-frequency remainder of the rescaled symbol: rescaled - limit below
    |k| = ln(alpha).

    Zero on the threshold set and above it, so the high part (the rescaled
    symbol on |k| >= ln(alpha), the limit symbol below it) plus low_part
    reproduces the rescaled symbol everywhere.
    """
    if abs(k) >= np.log(alpha):
        return np.zeros((2, 2))
    return rescaled_symbol(alpha, mass, k) - limit_symbol(k)


@dataclass(frozen=True)
class ConditionFParams:
    """Endpoint-exponent data estimated by :func:`probe_condition_f`.

    gamma is the largest exponent found to satisfy
    |eta^(k)(t)| <= c_k |t - t0|^(gamma - k) for k = 0, 1, 2 near t0,
    seminorm_bound the weighted sup of the sampled derivatives, and
    radius_R the support radius around t0 in which the bound was probed.
    """

    gamma: float
    radius_R: float
    t0: float
    seminorm_bound: float

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not self.radius_R > 0:
            raise ValueError("radius_R must be positive")
        if not self.seminorm_bound >= 0:
            raise ValueError("seminorm_bound must be nonnegative")


def eta_derivatives(order: RenyiOrder, t):
    """Closed-form (eta, eta', eta'') at points t strictly inside (0, 1)."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any((t_arr <= 0.0) | (t_arr >= 1.0)):
        raise ValueError("derivatives are evaluated strictly inside (0, 1)")
    d0 = eta(order, t_arr)
    u = 1.0 - t_arr
    if order.is_von_neumann:
        d1 = np.log1p(-t_arr) - np.log(t_arr)
        d2 = -1.0 / t_arr - 1.0 / u
    else:
        # eta = ln g / (1 - kappa) with g = t^kappa + u^kappa, d = kappa - 1:
        # eta' = -kappa D / g with D = (t^d - u^d) / d and
        # eta'' = (g'' g - g'^2) / ((1 - kappa) g^2). Within NEAR_ONE_BAND,
        # D = (expm1(d ln t) - expm1(d ln u)) / d does not cancel, and
        # g'' g - g'^2 = kappa d (t^(kappa-2) + u^(kappa-2)) g - (kappa d D)^2.
        # Outside it, with c = max(t, u) and r = min(t, u) / c,
        # g'' g - g'^2 = kappa c^(2 kappa - 2) [expm1((kappa - 2) ln r)
        # + (kappa - 2) r^(kappa-2) - r^(2 kappa - 2) + d r^kappa + 2 kappa r^d],
        # which does not cancel near t = 0 or 1 (at kappa = 2 it is 8 t u),
        # and g = c^kappa (1 + r^kappa).
        kap = order.kappa
        d = kap - 1.0
        g = t_arr**kap + u**kap
        if abs(d) <= NEAR_ONE_BAND:
            D = (np.expm1(d * np.log(t_arr)) - np.expm1(d * np.log(u))) / d
            d2 = (kap * kap * d * D * D - kap * (t_arr ** (kap - 2.0) + u ** (kap - 2.0)) * g) / (g * g)
        else:
            D = (t_arr**d - u**d) / d
            c = np.maximum(t_arr, u)
            r = np.minimum(t_arr, u) / c
            bracket = (np.expm1((kap - 2.0) * np.log(r)) + (kap - 2.0) * r ** (kap - 2.0)
                       - r ** (2.0 * kap - 2.0) + d * r**kap + 2.0 * kap * r**d)
            d2 = kap * bracket / (-d * (c * (1.0 + r**kap)) ** 2)
        d1 = -kap * D / g
    return d0, d1, d2


def probe_condition_f(order: RenyiOrder, t0: float, samples: int = 200) -> ConditionFParams:
    """Estimate the endpoint exponent gamma of eta_kappa at t0 in {0, 1}.

    Fits the log-log slope of |eta^(k)| against |t - t0| for k = 0, 1, 2 on a
    log-spaced sample approaching t0 and takes gamma = min_k(slope_k + k),
    capped at 1. This estimates the exponent; it does not certify constants.
    """
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    if t0 not in (0.0, 1.0):
        raise ValueError(f"t0 must be 0 or 1, got {t0}")

    dist = np.geomspace(1e-2, 1e-9, samples)
    t = dist if t0 == 0.0 else 1.0 - dist
    log_d = np.log(dist)

    derivs = eta_derivatives(order, t)
    exponents = []
    seminorm_terms = []
    for k, vals in enumerate(derivs):
        mag = np.abs(vals)
        if np.any(mag <= 0.0) or not np.all(np.isfinite(mag)):
            raise EstimationError(f"derivative order {k} vanished or overflowed in the probe")
        slope = np.polyfit(log_d, np.log(mag), 1)[0]
        exponents.append(slope + k)
        seminorm_terms.append((mag, k))

    gamma_hat = min(exponents)
    if gamma_hat <= 0.0:
        raise EstimationError(f"fitted endpoint exponent is not positive: {gamma_hat}")
    gamma_hat = min(gamma_hat, 1.0)

    seminorm = max(float(np.max(mag * dist ** (k - gamma_hat))) for mag, k in seminorm_terms)
    return ConditionFParams(gamma=gamma_hat, radius_R=1.0, t0=t0, seminorm_bound=seminorm)


@dataclass(frozen=True)
class SingularSpectrum:
    """Non-increasing singular values of one matrix."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if np.any(vals < 0) or np.any(np.diff(vals) > 0):
            raise ValueError("singular values must be nonnegative and non-increasing")


def singular_values(A: np.ndarray) -> SingularSpectrum:
    """Singular values of A in non-increasing order (LAPACK SVD)."""
    A = np.asarray(A)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return SingularSpectrum(values=np.linalg.svd(A, compute_uv=False))


def schatten_norm(A: np.ndarray, p: float) -> float:
    """(sum s_k^p)^(1/p); p = inf gives the operator norm, p = 1 the trace norm."""
    if not (p > 0 or p == np.inf):
        raise ValueError(f"p must be positive or inf, got {p}")
    s = singular_values(A).values
    if p == np.inf:
        return float(s[0]) if s.size else 0.0
    total = float(np.sum(s**p))
    return total ** (1.0 / p)


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        f = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        g = np.where(1.0 - x > 0, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return f / (f + g)


def localized_eta(order: RenyiOrder, t: np.ndarray, t0: float) -> np.ndarray:
    """eta multiplied by a fixed smooth partition member supported near t0.

    The partition cuts between 0.35 and 0.65, so each member contains exactly
    one endpoint of [0, 1] in its support.
    """
    t = np.asarray(t, dtype=float)
    psi_low = _smooth_step((0.65 - t) / 0.3)
    weight = psi_low if t0 == 0.0 else 1.0 - psi_low
    return eta(order, t) * weight


def _apply_fn(H: np.ndarray, fn) -> np.ndarray:
    vals, vecs = np.linalg.eigh(H)
    return (vecs * fn(vals)) @ np.conj(vecs.T)


def check_szego_bound(
    A: np.ndarray,
    P: np.ndarray,
    order: RenyiOrder,
    q: float,
    sigma: float,
    t0: float = 0.0,
) -> float:
    """Ratio ||P f(PAP) P - P f(A) P||_q / ||P A (1-P)||_{sigma q}^sigma.

    f is eta localized near one endpoint by the fixed smooth partition. The
    ratio realizes the constant in the spectral-compression bound; it is
    meaningful only when the compression PA(1-P) does not vanish, otherwise
    VacuousBoundError is raised.
    """
    if not (0.5 < q <= 1.0):
        raise ValueError(f"q must lie in (1/2, 1], got {q}")
    gamma = probe_condition_f(order, t0, samples=120).gamma
    limit = min(2.0 - 1.0 / q, gamma)
    if not sigma < limit:
        raise ValueError(f"sigma must be below min(2 - 1/q, gamma) = {limit:.4f}, got {sigma}")
    A = np.asarray(A)
    P = np.asarray(P)
    if np.abs(A - A.conj().T).max() > 1e-12:
        raise ValueError("A must be Hermitian")
    if np.abs(P @ P - P).max() > 1e-12 or np.abs(P - P.conj().T).max() > 1e-12:
        raise ValueError("P must be an orthogonal projection")
    evals = np.linalg.eigvalsh(A)
    if evals.min() < -1e-12 or evals.max() > 1.0 + 1e-12:
        raise ValueError("spectrum of A must lie in [0, 1]")

    fn = lambda t: localized_eta(order, t, t0)
    one_minus_P = np.eye(P.shape[0]) - P
    denominator = schatten_norm(P @ A @ one_minus_P, sigma * q) ** sigma
    if denominator < 1e-14:
        raise VacuousBoundError(
            "compression P A (1-P) vanishes; the bound is vacuous for commuting inputs"
        )
    difference = P @ _apply_fn(P @ A @ P, fn) @ P - P @ _apply_fn(A, fn) @ P
    return schatten_norm(difference, q) / denominator


@dataclass(frozen=True)
class MassIndependenceReport:
    masses: tuple
    sweeps: dict
    theory_slope: float
    slope_gap_full: float
    slope_gap_coarse: float


def _refit_slope(result: SweepResult, keep: int) -> float:
    pts = result.converged_points()[:keep]
    x = np.array([np.log(1.0 / p.params.epsilon) for p in pts])
    y = np.array([p.entropy for p in pts])
    return _fit_line(x, y)[0]


def mass_independence_check(
    lam: float,
    order: RenyiOrder,
    masses,
    eps_grid,
) -> MassIndependenceReport:
    """Sweep once per mass and compare the fitted slopes.

    The slope gap is also refitted on the coarse (largest epsilon) half of
    the grid: extending toward smaller epsilon must shrink the gap.
    """
    masses = tuple(float(m) for m in masses)
    if 0.0 not in masses:
        raise ValueError("masses must include 0")
    bases = {mass: PhysicalParams(mass=mass, epsilon=1.0, lam=lam) for mass in masses}
    sweeps = {mass: sweep(base, order, eps_grid) for mass, base in bases.items()}

    slopes_full = {m: s.slope for m, s in sweeps.items()}
    n_coarse = max(2, min(len(s.converged_points()) for s in sweeps.values()) // 2)
    slopes_coarse = {m: _refit_slope(s, n_coarse) for m, s in sweeps.items()}

    def gap(values: dict) -> float:
        vals = list(values.values())
        return max(abs(a - b) for a in vals for b in vals)

    return MassIndependenceReport(
        masses=masses,
        sweeps=sweeps,
        theory_slope=theoretical_slope(order),
        slope_gap_full=gap(slopes_full),
        slope_gap_coarse=gap(slopes_coarse),
    )
