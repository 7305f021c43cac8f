"""Randomized singular-value and Schatten-norm inequality checks.

verify_inequalities exercises, on seeded complex Gaussian matrices, the
singular-value sum bound s_{2k-1}(A+B) <= s_k(A) + s_k(B), the p-triangle
inequality for p < 1, block subadditivity at p = 1/2, the eigenvalue decay
bound s_k <= k^(-1/p) ||A||_p, the Hoelder product inequality, and norm
monotonicity in p. verify_commutator_lemma checks conjugation invariance of
the quasi-norms and the commutator/compression estimates for projections.
Violations are reported relative to the natural scale of each instance;
a report passes when its worst relative violation is below the slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import check_memory

SLACK_TOLERANCE = 1e-10
# peak bytes per trial and per matrix entry of the larger suite: about 13
# complex dim x dim matrices (four draws, the 2 dim x 2 dim block matrix and
# the copy its SVD takes); measured 200 dim^2 bytes at dims 8 and 16, 177 at 32
_SUITE_BYTES_PER_ENTRY = 208


@dataclass(frozen=True)
class SchattenReport:
    """Outcome of one randomized inequality check.

    max_violation is the worst (lhs - rhs) over all trials, normalized by
    the per-trial scale of the quantities involved; negative slack means
    the inequality held with margin. Reports flagged informational record
    expected violations (a stated form that fails generically) and are not
    asserted by the suite.
    """

    inequality_name: str
    trials: int
    max_violation: float
    seed: int
    slack_tolerance: float = SLACK_TOLERANCE
    informational: bool = False

    @property
    def passed(self) -> bool:
        return self.informational or self.max_violation <= self.slack_tolerance


def _qnorms(s: np.ndarray, p: float) -> np.ndarray:
    """Stacked Schatten norms from stacked singular values (last axis)."""
    if p == np.inf:
        return s[..., 0]
    return np.sum(s**p, axis=-1) ** (1.0 / p)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Entries with independent standard complex normal distribution."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_projections(rng: np.random.Generator, trials: int, dim: int, rank: int) -> np.ndarray:
    """Stack of orthogonal projections built from orthonormalized Gaussian columns."""
    M = complex_gaussian(rng, (trials, dim, rank))
    Q, _ = np.linalg.qr(M)
    return Q @ np.conj(np.swapaxes(Q, -1, -2))


def check_suite_args(dim: int, trials: int) -> None:
    """ValueError unless both suites accept dim (2 to 32) and trials (>= 1),
    and their stacked matrices, all trials at once, fit in physical memory."""
    if not (2 <= dim <= 32):
        raise ValueError(f"dim must lie in [2, 32], got {dim}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_memory(lambda count: _SUITE_BYTES_PER_ENTRY * dim * dim * count, trials, "--trials",
                 f" at dim {dim}")


def _relative_violation(lhs: np.ndarray, rhs: np.ndarray, scale: np.ndarray) -> float:
    return float(np.max((lhs - rhs) / np.maximum(scale, 1e-300)))


def verify_inequalities(dim: int, trials: int, seed: int) -> list[SchattenReport]:
    """Run the singular-value and Schatten-norm inequality suite."""
    check_suite_args(dim, trials)
    rng = np.random.default_rng(seed)
    A = complex_gaussian(rng, (trials, dim, dim))
    B = complex_gaussian(rng, (trials, dim, dim))
    C = complex_gaussian(rng, (trials, dim, dim))
    D = complex_gaussian(rng, (trials, dim, dim))

    sA = np.linalg.svd(A, compute_uv=False)
    sB = np.linalg.svd(B, compute_uv=False)
    sAB = np.linalg.svd(A + B, compute_uv=False)
    sProd = np.linalg.svd(A @ B, compute_uv=False)
    reports = []

    # s_{2k}(A+B) <= s_{2k-1}(A+B) <= s_k(A) + s_k(B)
    worst = -np.inf
    scale0 = sA[:, 0] + sB[:, 0]
    for k in range(1, dim // 2 + 2):
        if 2 * k - 1 > dim:
            break
        rhs = sA[:, k - 1] + sB[:, k - 1]
        worst = max(worst, _relative_violation(sAB[:, 2 * k - 2], rhs, scale0))
        if 2 * k <= dim:
            worst = max(worst, _relative_violation(sAB[:, 2 * k - 1], rhs, scale0))
    reports.append(SchattenReport("singular_value_sum", trials, worst, seed))

    # ||A + B||_p^p <= ||A||_p^p + ||B||_p^p for p < 1
    worst = -np.inf
    for p in (0.3, 0.5, 0.9):
        lhs = np.sum(sAB**p, axis=-1)
        rhs = np.sum(sA**p, axis=-1) + np.sum(sB**p, axis=-1)
        worst = max(worst, _relative_violation(lhs, rhs, rhs))
    reports.append(SchattenReport("p_triangle", trials, worst, seed))

    # block matrix: ||M||_p^p <= sum of block norms^p at p = 1/2
    M = np.concatenate(
        [np.concatenate([A, B], axis=-1), np.concatenate([C, D], axis=-1)], axis=-2
    )
    sM = np.linalg.svd(M, compute_uv=False)
    p = 0.5
    lhs = np.sum(sM**p, axis=-1)
    rhs = sum(np.sum(s**p, axis=-1) for s in (sA, sB, np.linalg.svd(C, compute_uv=False), np.linalg.svd(D, compute_uv=False)))
    reports.append(
        SchattenReport("block_subadditivity", trials, _relative_violation(lhs, rhs, rhs), seed)
    )

    # s_k(A) <= k^(-1/p) ||A||_p
    worst = -np.inf
    ks = np.arange(1, dim + 1, dtype=float)
    for p in (0.5, 1.0, 2.0):
        norm_p = _qnorms(sA, p)[:, None]
        worst = max(worst, _relative_violation(sA, ks ** (-1.0 / p) * norm_p, norm_p))
    reports.append(SchattenReport("eigenvalue_decay", trials, worst, seed))

    # ||AB||_p <= ||A||_p1 ||B||_p2 with 1/p = 1/p1 + 1/p2
    worst = -np.inf
    for p, p1, p2 in ((1.0, 2.0, 2.0), (0.5, 1.0, 1.0), (2.0 / 3.0, 1.0, 2.0), (1.0, 1.0, np.inf)):
        lhs = _qnorms(sProd, p)
        rhs = _qnorms(sA, p1) * _qnorms(sB, p2)
        worst = max(worst, _relative_violation(lhs, rhs, rhs))
    reports.append(SchattenReport("hoelder_product", trials, worst, seed))

    # ||A||_p2 <= ||A||_p1 for p1 < p2
    worst = -np.inf
    for p1, p2 in ((0.5, 1.0), (1.0, 2.0), (2.0, np.inf), (0.7, 5.0)):
        lhs = _qnorms(sA, p2)
        rhs = _qnorms(sA, p1)
        worst = max(worst, _relative_violation(lhs, rhs, rhs))
    reports.append(SchattenReport("norm_monotonicity", trials, worst, seed))
    return reports


def verify_commutator_lemma(dim: int, trials: int, seed: int) -> list[SchattenReport]:
    """Conjugation invariance and the projection commutator estimates.

    The two-sided commutator bound is tested in the form
    ||[A, B]||_q^q <= 2 ||B A (1 - B)||_q^q with A Hermitian and B an
    orthogonal projection, which is what the triangle-inequality argument
    yields; the stated one-sided form without the factor 2 fails generically
    and is recorded as an informational report rather than asserted.
    """
    check_suite_args(dim, trials)
    rng = np.random.default_rng(seed)
    G = complex_gaussian(rng, (trials, dim, dim))
    A_general = complex_gaussian(rng, (trials, dim, dim))
    A_herm = 0.5 * (G + np.conj(np.swapaxes(G, -1, -2)))
    P = random_projections(rng, trials, dim, max(1, dim // 2))
    one_minus_P = np.eye(dim) - P
    reports = []

    # (i) ||A||_q = ||A*||_q
    sA = np.linalg.svd(A_general, compute_uv=False)
    sAdag = np.linalg.svd(np.conj(np.swapaxes(A_general, -1, -2)), compute_uv=False)
    worst = -np.inf
    for q in (0.7, 1.0, 2.0):
        na, nd = _qnorms(sA, q), _qnorms(sAdag, q)
        worst = max(worst, float(np.max(np.abs(na - nd) / na)))
    reports.append(
        SchattenReport("conjugation_invariance", trials, worst, seed, slack_tolerance=1e-12)
    )

    def cross_singular_values(A_stack):
        """Singular values of the commutator [A, P] and of the compression PA(1-P)."""
        comm = A_stack @ P - P @ A_stack
        comp = P @ A_stack @ one_minus_P
        s_comm = np.linalg.svd(comm, compute_uv=False)
        s_comp = np.linalg.svd(comp, compute_uv=False)
        return s_comm, s_comp

    # (ii) ||[A, B]||_q^q <= 2 ||BA(1-B)||_q^q, Hermitian A, projection B
    worst = -np.inf
    worst_display = -np.inf
    s_comm, s_comp = cross_singular_values(A_herm)
    for q in (0.4, 0.7, 1.0):
        lhs = np.sum(s_comm**q, axis=-1)
        rhs = 2.0 * np.sum(s_comp**q, axis=-1)
        worst = max(worst, _relative_violation(lhs, rhs, rhs))
        disp_lhs = _qnorms(s_comm, q)
        disp_rhs = _qnorms(s_comp, q)
        worst_display = max(worst_display, _relative_violation(disp_lhs, disp_rhs, disp_rhs))
    reports.append(SchattenReport("commutator_two_sided", trials, worst, seed))
    reports.append(
        SchattenReport(
            "commutator_one_sided_form", trials, worst_display, seed, informational=True
        )
    )

    # (iii) ||BA(1-B)||_q <= ||[A, B]||_q for any A, projection B
    worst = -np.inf
    s_comm, s_comp = cross_singular_values(A_general)
    for q in (0.5, 1.0, 2.0):
        lhs = _qnorms(s_comp, q)
        rhs = _qnorms(s_comm, q)
        worst = max(worst, _relative_violation(lhs, rhs, rhs))
    reports.append(SchattenReport("projection_compression", trials, worst, seed))
    return reports

