"""Renyi entropy functions on [0, 1].

The family eta_kappa interpolates between the von Neumann entropy function
(kappa = 1) and the Renyi functions (1/(1-kappa)) ln(t^kappa + (1-t)^kappa).
This module provides stable evaluation of eta (from t or ln t) and the
closed-form slope constant (1/6)(kappa+1)/kappa (whose integral form lives
beside the bulk term in entropy_pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# |kappa - 1| below this uses the von Neumann branch; the general formula
# suffers catastrophic cancellation in (1/(1-kappa)) ln(...) near kappa = 1.
VON_NEUMANN_TOL = 1e-12
# |kappa - 1| up to this uses the expm1 form of eta, which does not cancel there
NEAR_ONE_BAND = 1e-3

# t below this is treated as an exact endpoint (IEEE underflow guard).
_UNDERFLOW_T = 1e-300

LN2 = np.log(2.0)


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


def eta_of_log(order: RenyiOrder, log_t: np.ndarray) -> np.ndarray:
    """eta_kappa(exp(log_t)) for log_t < 0, accurate where t underflows but t^kappa does not."""
    # ln(1 - t), each form where it does not cancel
    low = log_t <= -LN2
    log_u = np.where(low, np.log1p(-np.exp(np.minimum(log_t, -LN2))), np.log(-np.expm1(log_t)))
    log_s, log_c = np.minimum(log_t, log_u), np.maximum(log_t, log_u)
    return _eta_reflected(order, np.exp(log_s), log_s, log_c, np.exp(order.kappa * (log_s - log_c)))


def theoretical_slope(order: RenyiOrder) -> float:
    """Slope constant (1/6)(kappa+1)/kappa of the log-enhanced area law."""
    return (order.kappa + 1.0) / (6.0 * order.kappa)

