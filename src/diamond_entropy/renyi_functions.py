"""Renyi entropy functions on [0, 1] and their endpoint behavior.

The family eta_kappa interpolates between the von Neumann entropy function
(kappa = 1) and the Renyi functions (1/(1-kappa)) ln(t^kappa + (1-t)^kappa).
This module provides stable evaluation of eta and its first two derivatives,
the closed-form slope constant (1/6)(kappa+1)/kappa, the singular integral
(1/pi^2) int_0^1 eta(t)/(t(1-t)) dt that reproduces it, and a numerical probe
of the endpoint exponent gamma in |eta^(k)(t)| <= c_k |t - t0|^(gamma - k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EstimationError

# |kappa - 1| below this uses the von Neumann branch; the general formula
# suffers catastrophic cancellation in (1/(1-kappa)) ln(...) near kappa = 1.
VON_NEUMANN_TOL = 1e-12

# t below this is treated as an exact endpoint (IEEE underflow guard).
_UNDERFLOW_T = 1e-300

# relative accuracy demanded of entropy_integral
INTEGRAL_REL_TOL = 1e-8

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True)
class RenyiOrder:
    """Renyi order kappa > 0; kappa = 1 selects the von Neumann branch."""

    kappa: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be a positive finite real, got {self.kappa}")

    @property
    def is_von_neumann(self) -> bool:
        return abs(self.kappa - 1.0) < VON_NEUMANN_TOL


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


def eta(order: RenyiOrder, t):
    """Evaluate eta_kappa at t (scalar or array); zero outside (0, 1).

    Uses the reflected variable min(t, 1-t) with log1p/expm1 forms so the
    evaluation stays accurate at both endpoints.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    out = np.zeros_like(t_arr)

    tm = np.minimum(t_arr, 1.0 - t_arr)   # eta is symmetric about t = 1/2
    inside = tm > _UNDERFLOW_T
    tmi = tm[inside]
    if order.is_von_neumann:
        out[inside] = -tmi * np.log(tmi) - (1.0 - tmi) * np.log1p(-tmi)
    else:
        kap = order.kappa
        # t^k + (1-t)^k = 1 + [t^k + expm1(k log1p(-t))], stable as t -> 0
        s = np.power(tmi, kap) + np.expm1(kap * np.log1p(-tmi))
        out[inside] = np.log1p(s) / (1.0 - kap)
    return float(out[0]) if scalar else out


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
        kap = order.kappa
        g = t_arr**kap + u**kap
        gp = kap * (t_arr ** (kap - 1.0) - u ** (kap - 1.0))
        gpp = kap * (kap - 1.0) * (t_arr ** (kap - 2.0) + u ** (kap - 2.0))
        d1 = gp / ((1.0 - kap) * g)
        d2 = (gpp * g - gp * gp) / ((1.0 - kap) * g * g)
    return d0, d1, d2


def theoretical_slope(order: RenyiOrder) -> float:
    """Slope constant (1/6)(kappa+1)/kappa of the log-enhanced area law."""
    return (order.kappa + 1.0) / (6.0 * order.kappa)


def _panel_integral(order: RenyiOrder, a: float, b: float) -> float:
    """32-node Gauss-Legendre of eta(t)/(t(1-t)) over [a, b]."""
    x = 0.5 * (b - a) * (_GL_NODES + 1.0) + a
    w = 0.5 * (b - a) * _GL_WEIGHTS
    return float(np.sum(w * eta(order, x) / (x * (1.0 - x))))


def entropy_integral(order: RenyiOrder) -> float:
    """Compute (1/pi^2) int_0^1 eta_kappa(t) / (t(1-t)) dt.

    The integrand behaves like t^(gamma-1) at the endpoints, so the unit
    interval is covered by dyadic panels refined toward both ends (the
    integrand is symmetric, so only (0, 1/2] is integrated and doubled).
    Refinement stops once the geometric tail estimate of the remaining
    panels drops below a fraction of INTEGRAL_REL_TOL.
    """
    total = 0.0
    prev_contrib = None
    max_levels = 600
    for j in range(1, max_levels + 1):
        a, b = 2.0 ** -(j + 1), 2.0**-j
        contrib = 2.0 * _panel_integral(order, a, b)
        total += contrib
        if prev_contrib is not None and total > 0.0:
            ratio = contrib / prev_contrib if prev_contrib > 0 else 0.0
            if 0.0 <= ratio < 0.97:
                tail = contrib * ratio / (1.0 - ratio)
                if tail < 0.25 * INTEGRAL_REL_TOL * total:
                    return total / np.pi**2
        prev_contrib = contrib
    raise ConvergenceError(
        f"entropy_integral: dyadic refinement did not settle to rel_tol={INTEGRAL_REL_TOL} "
        f"within {max_levels} levels (kappa={order.kappa})"
    )


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
