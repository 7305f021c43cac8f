"""Slow references that the fast paths are checked against.

kernel_quadrature evaluates the 2x2 kernel by composite Gauss-Legendre
quadrature of its three momentum integrals; it is the reference for the
closed form kernel_blocks, and it is not part of the package. direct_operator
assembles the full 2N x 2N complex Nystrom matrix
sqrt(w_i) K(x_i - x_j) sqrt(w_j) from the kernel blocks, with no mirror
reduction; its eigenvalues are the reference for the real N x N mirror
blocks in operator_eigenvalues. exact_legendre_node refines one
Gauss-Legendre node to 50 digits; it is the reference for the rules of
quadrature._legendre_rule.
"""

from dataclasses import dataclass

import numpy as np

from diamond_entropy import ConvergenceError, PhysicalParams, kernel_blocks, omega

HERMITIAN_TOL = 1e-12

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


def kernel_matrix(params, u):
    """The 2x2 kernel matrix at one separation u."""
    a, b, c = kernel_blocks(params, u)
    return np.array([[a + 1j * b, c], [c, a - 1j * b]])


def direct_matrix(params, grid, x_offset=0.0):
    """The weight-symmetrized 2N x 2N matrix as assembled, before hermitization."""
    x = grid.nodes + x_offset
    a, b, c = kernel_blocks(params, x[:, None] - x[None, :])
    sw = np.sqrt(grid.weights)
    W = sw[:, None] * sw[None, :]
    return np.block([[(a + 1j * b) * W, c * W], [c * W, (a - 1j * b) * W]])


def direct_operator(params, grid, x_offset=0.0):
    """The Hermitian part of direct_matrix, which must already be Hermitian."""
    M = direct_matrix(params, grid, x_offset)
    dev = np.abs(M - M.conj().T).max()
    if dev > HERMITIAN_TOL:
        raise AssertionError(f"matrix is not Hermitian before symmetrization: {dev:.3e}")
    return 0.5 * (M + M.conj().T)


def direct_spectrum(params, grid, x_offset=0.0):
    """All 2N eigenvalues (ascending) of direct_operator."""
    return np.linalg.eigvalsh(direct_operator(params, grid, x_offset))


def exact_legendre_node(n, x0):
    """The root of P_n nearest the float x0 and its Gauss-Legendre weight
    2 / ((1 - x^2) P_n'(x)^2), as 50-digit mpmath numbers: Newton's method
    on the three-term recurrence, run in 50-digit arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        x = mpmath.mpf(float(x0))
        for _ in range(10):
            p0, p1 = mpmath.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (p0 - x * p1) / (1 - x * x)
            step = p1 / dp
            x -= step
            if abs(step) < mpmath.mpf(10) ** -45:
                break
        else:
            raise AssertionError(f"Newton's method did not converge from x0={x0} at n={n}")
        # the last step was below 1e-45, so dp is the derivative at the root to 45 digits
        return +x, 2 / ((1 - x * x) * dp * dp)
