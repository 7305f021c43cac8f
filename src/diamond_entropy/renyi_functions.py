"""Renyi entropy functions on [0, 1] and their endpoint behavior.

The family eta_kappa interpolates between the von Neumann entropy function
(kappa = 1) and the Renyi functions (1/(1-kappa)) ln(t^kappa + (1-t)^kappa).
This module provides stable evaluation of eta (from t or ln t) and its first
two derivatives, the closed-form slope constant (1/6)(kappa+1)/kappa (whose
integral form lives beside the bulk term in entropy_pipeline), and a probe of
the endpoint exponent gamma in |eta^(k)(t)| <= c_k |t - t0|^(gamma - k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError

# |kappa - 1| below this uses the von Neumann branch; the general formula
# suffers catastrophic cancellation in (1/(1-kappa)) ln(...) near kappa = 1.
VON_NEUMANN_TOL = 1e-12
# |kappa - 1| up to this uses the expm1 form of eta, which does not cancel there
NEAR_ONE_BAND = 1e-3

# t below this is treated as an exact endpoint (IEEE underflow guard).
_UNDERFLOW_T = 1e-300

_LN2 = np.log(2.0)


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


def _eta_reflected(order: RenyiOrder, s, log_s, log_c, ratio_pow):
    """eta at the reflected point s <= 1/2 from s, ln s, ln(1-s), (s/(1-s))^kappa.

    (kappa ln(1-s) + log1p((s/(1-s))^kappa)) / (1-kappa) neither overflows
    nor cancels at large kappa. Near kappa = 1 its numerator cancels, so
    within NEAR_ONE_BAND it is log1p(s expm1(d ln s) + c expm1(d ln c)) / (-d)
    with d = kappa - 1 and c = 1 - s, whose two terms share a sign. Callers
    form each input accurately.
    """
    if order.is_von_neumann:
        return -s * log_s - np.exp(log_c) * log_c
    kap = order.kappa
    d = kap - 1.0
    if abs(d) <= NEAR_ONE_BAND:
        return np.log1p(s * np.expm1(d * log_s) + np.exp(log_c) * np.expm1(d * log_c)) / -d
    return (kap * log_c + np.log1p(ratio_pow)) / (1.0 - kap)


def eta(order: RenyiOrder, t):
    """Evaluate eta_kappa at t (scalar or array); zero outside (0, 1).

    Uses the reflected variable min(t, 1-t) in log1p form, so it stays
    accurate at both endpoints and for every kappa > 0.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    out = np.zeros_like(t_arr)

    tm = np.minimum(t_arr, 1.0 - t_arr)   # eta is symmetric about t = 1/2
    inside = tm > _UNDERFLOW_T
    s = tm[inside]
    out[inside] = _eta_reflected(order, s, np.log(s), np.log1p(-s), (s / (1.0 - s)) ** order.kappa)
    return float(out[0]) if scalar else out


def _eta_of_log(order: RenyiOrder, log_t: np.ndarray) -> np.ndarray:
    """eta_kappa(exp(log_t)) for log_t < 0, accurate where t underflows but t^kappa does not."""
    # ln(1 - t), each form where it does not cancel
    low = log_t <= -_LN2
    log_u = np.where(low, np.log1p(-np.exp(np.minimum(log_t, -_LN2))), np.log(-np.expm1(log_t)))
    log_s, log_c = np.minimum(log_t, log_u), np.maximum(log_t, log_u)
    return _eta_reflected(order, np.exp(log_s), log_s, log_c, np.exp(order.kappa * (log_s - log_c)))


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
        # eta' = -kappa D / g and eta'' = (-kappa (t^(kappa-2) + u^(kappa-2)) g
        # + kappa^2 d D^2) / g^2, where D = (t^d - u^d) / d; within
        # NEAR_ONE_BAND, D = (expm1(d ln t) - expm1(d ln u)) / d does not cancel
        kap = order.kappa
        d = kap - 1.0
        g = t_arr**kap + u**kap
        if abs(d) <= NEAR_ONE_BAND:
            D = (np.expm1(d * np.log(t_arr)) - np.expm1(d * np.log(u))) / d
        else:
            D = (t_arr**d - u**d) / d
        d1 = -kap * D / g
        d2 = (kap * kap * d * D * D - kap * (t_arr ** (kap - 2.0) + u ** (kap - 2.0)) * g) / (g * g)
    return d0, d1, d2


def theoretical_slope(order: RenyiOrder) -> float:
    """Slope constant (1/6)(kappa+1)/kappa of the log-enhanced area law."""
    return (order.kappa + 1.0) / (6.0 * order.kappa)


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
