"""Nystrom discretization of the truncated kernel operator.

The interval operator (restrict, apply translation-invariant kernel,
restrict again) is replaced by the weight-symmetrized collocation matrix
sqrt(w_i) K(x_i - x_j) sqrt(w_j) on a quadrature grid, which is Hermitian
by construction and has the same eigenvalues as the plain collocation
matrix w_j K(x_i - x_j).

Two exact algebraic reductions speed up the spectrum:

* mass = 0: the kernel is diagonal in the spinor index and the two blocks
  are complex conjugates of each other, so one N x N Hermitian eigensolve
  yields the full spectrum with multiplicity two.
* mass > 0: the kernel satisfies K(u) = sigma_x conj(K(u)) sigma_x, which
  makes the 2N x 2N Hermitian matrix unitarily equivalent to the real
  symmetric matrix [[A + C, -B], [B, A - C]] built from K11 = A + iB and
  K12 = C; a real eigensolve is about four times cheaper.

Both reductions are verified against the direct 2N x 2N complex assembly
that the test suite keeps as its reference.

The module also builds the cross blocks (inside x outside) of scalar-symbol
operators on a graded grid, used by the quasi-norm growth diagnostics.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import k1 as _bessel_k1

from .dirac_symbols import PhysicalParams
from .errors import ConvergenceError
from .kernel_eval import kernel_blocks

DEFAULT_TOL_DISC = 1e-6


class GridRule(str, Enum):
    GAUSS_LEGENDRE = "gauss_legendre"
    MIDPOINT = "midpoint"


@dataclass(frozen=True)
class Grid:
    """Quadrature nodes/weights on (0, lam)."""

    nodes: np.ndarray
    weights: np.ndarray
    rule: GridRule
    lam: float

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(nodes <= 0) or np.any(nodes >= self.lam):
            raise ValueError("nodes must lie strictly inside (0, lam)")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - self.lam) > 1e-12 * self.lam:
            raise ValueError("weights must sum to lam")

    @property
    def size(self) -> int:
        return self.nodes.size


def build_grid(n: int, lam: float, rule: GridRule = GridRule.GAUSS_LEGENDRE) -> Grid:
    """Gauss-Legendre or midpoint rule with n nodes on (0, lam)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    rule = GridRule(rule)
    if rule is GridRule.GAUSS_LEGENDRE:
        x, w = np.polynomial.legendre.leggauss(n)
        nodes = 0.5 * lam * (x + 1.0)
        weights = 0.5 * lam * w
    else:
        h = lam / n
        nodes = h * (np.arange(n) + 0.5)
        weights = np.full(n, h)
    return Grid(nodes=nodes, weights=weights, rule=rule, lam=lam)


_SPECTRUM_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_SPECTRUM_CACHE_MAX = 256


def clear_spectrum_cache() -> None:
    _SPECTRUM_CACHE.clear()


def _cached(key, compute):
    if key in _SPECTRUM_CACHE:
        _SPECTRUM_CACHE.move_to_end(key)
        return _SPECTRUM_CACHE[key]
    value = compute()
    _SPECTRUM_CACHE[key] = value
    if len(_SPECTRUM_CACHE) > _SPECTRUM_CACHE_MAX:
        _SPECTRUM_CACHE.popitem(last=False)
    return value


def validate_spectrum_range(eigenvalues: np.ndarray, tol_disc: float = DEFAULT_TOL_DISC) -> None:
    """Raise ConvergenceError unless the spectrum lies in [-tol, 1 + tol]."""
    lo = float(eigenvalues.min())
    hi = float(eigenvalues.max())
    if lo < -tol_disc or hi > 1.0 + tol_disc:
        raise ConvergenceError(
            f"spectrum [{lo:.3e}, {hi:.6f}] leaves [-{tol_disc:.0e}, 1+{tol_disc:.0e}]; "
            "the grid does not resolve the kernel at this epsilon"
        )


def operator_eigenvalues(
    params: PhysicalParams,
    grid: Grid,
    *,
    x_offset: float = 0.0,
    validate: bool = True,
    tol_disc: float = DEFAULT_TOL_DISC,
    use_cache: bool = True,
) -> np.ndarray:
    """All 2N eigenvalues (ascending) of the symmetrized Nystrom matrix.

    Uses the spinor-block reduction at mass = 0 and the real-symmetric
    reduction at mass > 0; results are cached by the parameters, the grid's
    nodes and weights, and the offset.
    """
    key = (params.mass, params.epsilon, params.lam,
           grid.nodes.tobytes(), grid.weights.tobytes(), x_offset)

    def compute() -> np.ndarray:
        x = grid.nodes + x_offset
        sw = np.sqrt(grid.weights)
        W = sw[:, None] * sw[None, :]
        K11, K12 = kernel_blocks(params, x[:, None] - x[None, :])
        K11 *= W
        if params.mass == 0.0:
            K11 = 0.5 * (K11 + K11.conj().T)
            ev = np.linalg.eigvalsh(K11)
            return np.sort(np.repeat(ev, 2))
        K12 *= W
        A, B = K11.real, K11.imag
        real_form = np.block([[A + K12, -B], [B, A - K12]])
        del K11, K12, A, B  # free the blocks before the eigensolve
        real_form = 0.5 * (real_form + real_form.T)
        return np.linalg.eigvalsh(real_form)

    eigenvalues = _cached(key, compute) if use_cache else compute()
    if validate:
        validate_spectrum_range(eigenvalues, tol_disc)
    return eigenvalues


# ---------------------------------------------------------------------------
# Cross blocks of scalar-symbol operators (inside x outside an interval)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarSymbol:
    """Scalar momentum symbol with an optional closed-form position kernel.

    fine_scale is the smallest position-space feature of the kernel and
    controls how deep the graded grids refine toward the interval endpoints.
    """

    func: Callable[[np.ndarray], np.ndarray]
    kernel: Callable[[np.ndarray], np.ndarray] | None = None
    fine_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.fine_scale) and self.fine_scale > 0):
            raise ValueError("fine_scale must be positive and finite")


def constant_symbol(c: float) -> ScalarSymbol:
    """Multiplication by a constant; its cross-interval kernel vanishes."""
    return ScalarSymbol(
        func=lambda k: np.full_like(np.asarray(k, dtype=float), c),
        kernel=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        fine_scale=1.0,
    )


def exp_abs_symbol(eps0: float) -> ScalarSymbol:
    """a(k) = exp(-eps0 |k|), kernel eps0 / (pi (eps0^2 + u^2))."""
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    return ScalarSymbol(
        func=lambda k: np.exp(-eps0 * np.abs(k)),
        kernel=lambda u: eps0 / (np.pi * (eps0**2 + np.asarray(u, dtype=float) ** 2)),
        fine_scale=eps0,
    )


def exp_omega_symbol(eps0: float, mass: float) -> ScalarSymbol:
    """a(k) = exp(-eps0 sqrt(k^2 + mass^2)), kernel via the Bessel identity."""
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    if mass == 0.0:
        return exp_abs_symbol(eps0)

    def kern(u):
        u_arr = np.asarray(u, dtype=float)
        r = np.hypot(eps0, u_arr)
        return mass * eps0 * _bessel_k1(mass * r) / (np.pi * r)

    return ScalarSymbol(
        func=lambda k: np.exp(-eps0 * np.hypot(k, mass)),
        kernel=kern,
        fine_scale=eps0,
    )


def _graded_edges(length: float, fine: float) -> np.ndarray:
    """Dyadic panel edges from a refined endpoint at 0 out to `length`."""
    fine = min(fine, length)
    edges = [0.0, fine]
    while edges[-1] < length:
        edges.append(min(2.0 * edges[-1], length))
    return np.asarray(edges)


def _panel_nodes(edges: np.ndarray, per: int):
    nodes, weights = np.polynomial.legendre.leggauss(per)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    order = np.argsort(x)
    return x[order], w[order]


def _kernel_by_quadrature(symbol: ScalarSymbol, u_flat: np.ndarray) -> np.ndarray:
    """Fourier transform of a generic decaying symbol on given separations."""
    probe = np.abs(symbol.func(np.array([0.0]))).max()
    if probe == 0.0:
        return np.zeros_like(u_flat)
    k_max = 1.0 / symbol.fine_scale
    while np.abs(symbol.func(np.array([k_max]))).max() > 1e-12 * probe:
        k_max *= 2.0
        if k_max > 1e12:
            raise ConvergenceError("symbol does not decay; cannot truncate its Fourier transform")
    u_abs_max = float(np.abs(u_flat).max())
    n_panels = max(64, int(np.ceil(k_max * u_abs_max / np.pi)))
    if n_panels > 200_000:
        raise ConvergenceError("oscillation budget exceeded in symbol Fourier transform")
    edges = np.linspace(0.0, k_max, n_panels + 1)
    k, w = _panel_nodes(edges, 16)
    a_plus = symbol.func(k)
    a_minus = symbol.func(-k)
    if np.allclose(a_plus, a_minus, rtol=1e-12, atol=1e-300):
        def transform(u_chunk):
            return (a_plus * w) @ np.cos(np.outer(k, u_chunk)) / np.pi
    else:
        def transform(u_chunk):
            phases = np.exp(1j * np.outer(k, u_chunk))
            return ((a_plus * w) @ phases + (a_minus * w) @ np.conj(phases)).real / (2.0 * np.pi)

    out = np.empty_like(u_flat)
    chunk = max(1, 10_000_000 // max(k.size, 1))
    for start in range(0, u_flat.size, chunk):
        out[start : start + chunk] = transform(u_flat[start : start + chunk])
    return out


def _box_tail_fraction(kernel: Callable, fine: float, lam: float, box_half_width: float) -> float:
    """Relative Hilbert-Schmidt mass of the kernel beyond the box cut."""
    u_lo, u_hi = fine / 8.0, 50.0 * (box_half_width + lam)
    u = np.geomspace(u_lo, u_hi, 1200)
    k2 = np.abs(kernel(u)) ** 2
    if not np.any(k2 > 0):
        return 0.0
    total = np.trapezoid(k2, u) + k2[0] * u_lo  # near field bounded by k(u_lo)
    tail_mask = u >= box_half_width
    tail = np.trapezoid(k2[tail_mask], u[tail_mask]) if tail_mask.sum() > 1 else 0.0
    # power-law extrapolation of the sampled tail end
    last = slice(-120, None)
    logs = np.polyfit(np.log(u[last]), np.log(np.maximum(k2[last], 1e-300)), 1)
    p2 = -logs[0]
    if p2 > 1.2:
        tail += k2[-1] * u_hi / (p2 - 1.0)
    else:
        tail += k2[-1] * u_hi * 10.0
    return float(np.sqrt(tail / total))


def assemble_offdiagonal_truncation(
    symbol: ScalarSymbol | Callable,
    lam: float,
    box_half_width: float,
    n: int,
    *,
    box_tail_tol: float = 1e-6,
) -> np.ndarray:
    """Cross block of a scalar-symbol operator: rows inside (0, lam), columns
    in [-L, 0) and (lam, lam + L], weight-symmetrized.

    The grids grade dyadically toward the interval endpoints down to the
    symbol's fine scale; n is the total node budget across rows and columns.
    Raises ConvergenceError if the kernel mass beyond the box exceeds
    box_tail_tol of the total (the box would bias the singular values).
    """
    if callable(symbol) and not isinstance(symbol, ScalarSymbol):
        symbol = ScalarSymbol(func=symbol)
    if not (lam > 0 and box_half_width > 0):
        raise ValueError("lam and box_half_width must be positive")

    fine = symbol.fine_scale / 2.0
    row_half = _graded_edges(lam / 2.0, fine)
    col_edges = _graded_edges(box_half_width, fine)
    n_panels = 2 * (row_half.size - 1) + 2 * (col_edges.size - 1)
    per = min(24, n // n_panels)
    if per < 4:
        raise ValueError(
            f"node budget n={n} too small: need at least {4 * n_panels} for "
            f"{n_panels} graded panels"
        )

    x_l, w_l = _panel_nodes(row_half, per)
    x_rows = np.concatenate([x_l, lam - x_l[::-1]])
    w_rows = np.concatenate([w_l, w_l[::-1]])

    y_out, w_out = _panel_nodes(col_edges, per)
    y_cols = np.concatenate([-y_out[::-1], lam + y_out])
    w_cols = np.concatenate([w_out[::-1], w_out])

    if symbol.kernel is not None:
        if _box_tail_fraction(symbol.kernel, fine, lam, box_half_width) > box_tail_tol:
            raise ConvergenceError(
                f"kernel mass beyond the box exceeds box_tail_tol={box_tail_tol:.0e}; "
                "increase box_half_width"
            )
        diff = x_rows[:, None] - y_cols[None, :]
        kvals = symbol.kernel(diff)
    else:
        diff = (x_rows[:, None] - y_cols[None, :]).ravel()
        kvals = _kernel_by_quadrature(symbol, diff).reshape(x_rows.size, y_cols.size)

    return np.sqrt(w_rows)[:, None] * kvals * np.sqrt(w_cols)[None, :]
