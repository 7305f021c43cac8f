"""Slow references that the fast paths are checked against.

direct_operator assembles the full 2N x 2N complex Nystrom matrix
sqrt(w_i) K(x_i - x_j) sqrt(w_j) from the kernel blocks, with no mirror
reduction; its eigenvalues are the reference for the real N x N mirror
blocks in operator_eigenvalues.
"""

import numpy as np

from diamond_entropy import kernel_blocks

HERMITIAN_TOL = 1e-12


def kernel_matrix(params, u):
    """The 2x2 kernel matrix at one separation u."""
    K11, K12 = kernel_blocks(params, u)
    return np.array([[K11, K12], [K12, np.conj(K11)]])


def direct_matrix(params, grid, x_offset=0.0):
    """The weight-symmetrized 2N x 2N matrix as assembled, before hermitization."""
    x = grid.nodes + x_offset
    K11, K12 = kernel_blocks(params, x[:, None] - x[None, :])
    sw = np.sqrt(grid.weights)
    W = sw[:, None] * sw[None, :]
    return np.block([[K11 * W, K12 * W], [K12 * W, np.conj(K11) * W]])


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
