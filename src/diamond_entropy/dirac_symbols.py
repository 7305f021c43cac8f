"""Momentum-space building blocks of the regularized vacuum projector.

All symbols are 2x2 Hermitian matrices (plain numpy arrays) of a real
momentum: the dispersion omega(k), the Hamiltonian symbol [[-k, m], [m, k]],
its spectral projections E_+/E_-, the rescaled family of the damped
negative-frequency symbol exp(-eps*omega) E_- obtained by momentum dilation,
and its large-dilation limit symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Value assigned to E_- (and hence to the damped and limit symbols) at the
# degenerate point k = m = 0: the symmetric average of the two one-sided
# limits. Measure zero, fixed so symbol closures are total functions.
_DEGENERATE_PROJECTION = np.array([[0.5, 0.0], [0.0, 0.5]])


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, damping scale epsilon, and interval length for one entropy run."""

    mass: float
    epsilon: float
    lam: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mass) and self.mass >= 0):
            raise ValueError(f"mass must be >= 0, got {self.mass}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be > 0, got {self.lam}")


def omega(k, mass):
    """Dispersion sqrt(k^2 + mass^2); accepts scalars or arrays."""
    if np.any(np.asarray(mass) < 0):
        raise ValueError("mass must be >= 0")
    return np.hypot(k, mass)


def hamiltonian_symbol(k: float, mass: float) -> np.ndarray:
    """Traceless Hermitian symbol [[-k, m], [m, k]] with eigenvalues +-omega."""
    if mass < 0:
        raise ValueError("mass must be >= 0")
    return np.array([[-k, mass], [mass, k]], dtype=float)


def spectral_projection(k: float, mass: float, sign: int) -> np.ndarray:
    """Rank-one eigenprojection E_sign = 1/2 + sign * H(k) / (2 omega(k)).

    The degenerate input k = mass = 0 (omega = 0) is rejected.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if k == 0.0 and mass == 0.0:
        raise ValueError("spectral projection is singular at k = mass = 0")
    w = omega(k, mass)
    return 0.5 * np.eye(2) + sign * hamiltonian_symbol(k, mass) / (2.0 * w)


def _negative_projection_total(k: float, mass: float) -> np.ndarray:
    """E_-(k), extended across the degenerate point by the symmetric average."""
    if k == 0.0 and mass == 0.0:
        return _DEGENERATE_PROJECTION.copy()
    return spectral_projection(k, mass, -1)


def rescaled_symbol(alpha: float, mass: float, xi: float) -> np.ndarray:
    """Symbol of the dilated family: equals the damped symbol at
    (epsilon = 1/alpha, k = alpha * xi), i.e. mass enters only as mass/alpha."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    mu = mass / alpha
    damping = np.exp(-omega(xi, mu))
    return damping * _negative_projection_total(xi, mu)


def limit_symbol(xi: float) -> np.ndarray:
    """Large-dilation limit exp(-|xi|) diag(1_{xi>0}, 1_{xi<0}).

    At xi = 0 the two one-sided limits are averaged to diag(1/2, 1/2).
    """
    damping = np.exp(-abs(xi))
    if xi > 0.0:
        return np.array([[damping, 0.0], [0.0, 0.0]])
    if xi < 0.0:
        return np.array([[0.0, 0.0], [0.0, damping]])
    return _DEGENERATE_PROJECTION.copy()
