"""Position-space evaluation of the 2x2 damped vacuum-projector kernel.

The kernel at separation u = x - y is

    K(u) = (1/4pi) * [[F0 + F1, -Fm], [-Fm, F0 - F1]],

built from three scalar momentum integrals of the damped symbol:

    F0(u)  = int exp(-eps*omega(k) + i k u) dk              (real, even)
    F1(u)  = int (k/omega) exp(-eps*omega + i k u) dk       (imaginary, odd)
    Fm(u)  = m int (1/omega) exp(-eps*omega + i k u) dk     (real, even)

The closed form is written once, in kernel_blocks: diag(1/(2pi(eps -+ i u)))
at mass 0, and at mass > 0 the modified Bessel functions

    F0 = 2 m eps K1(m r)/r,  Fm = 2 m K0(m r),  F1 = 2 i m u K1(m r)/r,

with r = sqrt(eps^2 + u^2). Direct oscillatory quadrature, kernel_quadrature,
is the reference the test suite checks the closed form against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import k0 as _bessel_k0, k1 as _bessel_k1

from .dirac_symbols import PhysicalParams, omega
from .errors import ConvergenceError

# Cap on the number of oscillation-resolving panels in one quadrature call.
MAX_OSCILLATION_PANELS = 500_000


@dataclass(frozen=True)
class QuadratureSpec:
    """Momentum-truncation and panelization parameters for the kernel quadrature."""

    k_max: float
    panels: int
    nodes_per_panel: int = 16
    tail_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.k_max > 0 and np.isfinite(self.k_max)):
            raise ValueError("k_max must be positive and finite")
        if self.panels < 1 or self.nodes_per_panel < 2:
            raise ValueError("panels >= 1 and nodes_per_panel >= 2 required")
        if not (0 < self.tail_tol < 1):
            raise ValueError("tail_tol must lie in (0, 1)")

    def validate_tail(self, params: PhysicalParams) -> None:
        """Check that the discarded momentum tail is below tail_tol."""
        damping = np.exp(-params.epsilon * omega(self.k_max, params.mass))
        if damping > self.tail_tol * (1.0 + 1e-9):
            raise ValueError(
                f"k_max={self.k_max} keeps tail damping {damping:.3e} above "
                f"tail_tol={self.tail_tol:.3e} for epsilon={params.epsilon}, "
                f"mass={params.mass}"
            )


def default_quadrature_spec(
    params: PhysicalParams,
    tail_tol: float = 1e-12,
    nodes_per_panel: int = 16,
    panels: int = 64,
) -> QuadratureSpec:
    """Spec with k_max chosen so exp(-eps*omega(k_max)) = tail_tol."""
    target = np.log(1.0 / tail_tol) / params.epsilon
    if target > params.mass:
        k_max = float(np.sqrt(target**2 - params.mass**2))
    else:
        k_max = float(target)
    spec = QuadratureSpec(
        k_max=k_max, panels=panels, nodes_per_panel=nodes_per_panel, tail_tol=tail_tol
    )
    spec.validate_tail(params)
    return spec


def _quadrature_edges(params: PhysicalParams, spec: QuadratureSpec, u: float) -> np.ndarray:
    """Panel edges on [0, k_max]: geometric refinement toward k = 0 (the
    massive integrands have a feature of width ~ mass there), then every
    panel split until its width is <= min(pi/|u|, k_max/panels)."""
    k_max = spec.k_max
    scale = params.mass if params.mass > 0 else params.epsilon
    first = min(scale / 8.0, k_max)
    base = [0.0, first]
    while base[-1] < k_max:
        base.append(min(2.0 * base[-1], k_max))
    width = k_max / spec.panels
    if u != 0.0:
        width = min(width, np.pi / abs(u))
    pieces = [np.array([0.0])]
    for a, b in zip(base[:-1], base[1:]):
        splits = int(np.ceil((b - a) / width))
        pieces.append(np.linspace(a, b, splits + 1)[1:])
    return np.concatenate(pieces)


def kernel_quadrature(
    params: PhysicalParams,
    u: float,
    spec: QuadratureSpec | None = None,
    max_panels: int = MAX_OSCILLATION_PANELS,
) -> np.ndarray:
    """Reference 2x2 kernel matrix: composite Gauss-Legendre over [0, k_max].

    Panels refine geometrically toward k = 0 and are capped at pi/|u| so
    each sees at most half an oscillation period; raises ConvergenceError
    if that requires more than max_panels panels.
    """
    if spec is None:
        spec = default_quadrature_spec(params)
    spec.validate_tail(params)

    width = spec.k_max / spec.panels
    if u != 0.0:
        width = min(width, np.pi / abs(u))
    if int(np.ceil(spec.k_max / width)) > max_panels:
        raise ConvergenceError(
            f"oscillation resolution needs {int(np.ceil(spec.k_max / width))} panels, "
            f"budget is {max_panels} (u={u}, k_max={spec.k_max})"
        )

    edges = _quadrature_edges(params, spec, u)
    nodes, weights = np.polynomial.legendre.leggauss(spec.nodes_per_panel)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    k = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()

    om = omega(k, params.mass)
    damp = np.exp(-params.epsilon * om)
    cos_u = np.cos(k * u)
    sin_u = np.sin(k * u)

    F0 = 2.0 * np.sum(w * damp * cos_u)
    F1_imag = 2.0 * np.sum(w * (k / om) * damp * sin_u)
    if params.mass > 0:
        Fm = 2.0 * params.mass * np.sum(w * damp * cos_u / om)
    else:
        Fm = 0.0
    inv4pi = 1.0 / (4.0 * np.pi)
    return np.array(
        [
            [inv4pi * (F0 + 1j * F1_imag), -inv4pi * Fm],
            [-inv4pi * Fm, inv4pi * (F0 - 1j * F1_imag)],
        ]
    )


def massive_scalar_integrals(mass: float, epsilon: float, u):
    """Vectorized (F0, Im F1, Fm) via modified Bessel functions, mass > 0.

    Raises ConvergenceError if the Bessel evaluation leaves the finite range
    (m*r overflow/underflow producing non-finite values).
    """
    if not mass > 0:
        raise ValueError("massive_scalar_integrals requires mass > 0")
    u_arr = np.asarray(u, dtype=float)
    r = np.hypot(epsilon, u_arr)
    z = mass * r
    bk1 = _bessel_k1(z)
    bk0 = _bessel_k0(z)
    F0 = 2.0 * mass * epsilon * bk1 / r
    F1_imag = 2.0 * mass * u_arr * bk1 / r
    Fm = 2.0 * mass * bk0
    for name, arr in (("F0", F0), ("F1", F1_imag), ("Fm", Fm)):
        if not np.all(np.isfinite(arr)):
            raise ConvergenceError(
                f"Bessel evaluation of {name} left the finite range "
                f"(mass={mass}, epsilon={epsilon})"
            )
    return F0, F1_imag, Fm


def kernel_blocks(params: PhysicalParams, u):
    """Closed-form kernel blocks (K11, K12) at separations u.

    K(u) = [[K11, K12], [K12, conj(K11)]] with K11 complex and K12 real,
    both of the shape of u; K12 is the scalar 0.0 at mass 0.
    """
    u_arr = np.asarray(u, dtype=float)
    if params.mass == 0.0:
        return 1.0 / (2.0 * np.pi * (params.epsilon - 1j * u_arr)), 0.0
    F0, F1_imag, Fm = massive_scalar_integrals(params.mass, params.epsilon, u_arr)
    inv4pi = 1.0 / (4.0 * np.pi)
    K11 = np.empty(u_arr.shape, dtype=complex)
    K11.real = inv4pi * F0
    K11.imag = inv4pi * F1_imag
    return K11, -inv4pi * Fm
