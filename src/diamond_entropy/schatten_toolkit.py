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


def power_sum(s: np.ndarray, q: float, size: int | None = None) -> np.ndarray:
    """Sum of s**q along the last axis of stacked descending singular values.

    Every s <= s_1 * size * eps_machine is left out, size being the larger
    dimension of the matrices (default s.shape[-1], square ones): values at
    the rounding floor are noise that s**q with q < 1 magnifies. A row that
    loses values is summed over the values it keeps, so each sum is np.sum's
    over its kept values, bit for bit.
    """
    size = s.shape[-1] if size is None else size
    rows = s.reshape(-1, s.shape[-1])
    keep = rows > rows[:, :1] * size * np.finfo(float).eps
    sums = np.sum(rows**q, axis=-1)
    for i in np.flatnonzero(~keep.all(axis=-1)):
        sums[i] = np.sum(rows[i][keep[i]] ** q)
    return sums.reshape(s.shape[:-1])


def _qnorms(s: np.ndarray, p: float) -> np.ndarray:
    """Stacked Schatten norms from stacked singular values (last axis)."""
    if p == np.inf:
        return s[..., 0]
    return power_sum(s, p) ** (1.0 / p)


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
    and their stacked matrices, all trials at once, fit in memory
    (discretization.check_memory)."""
    if not (2 <= dim <= 32):
        raise ValueError(f"dim must lie in [2, 32], got {dim}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_memory(lambda count: _SUITE_BYTES_PER_ENTRY * dim * dim * count, trials, "--trials",
                 f" at dim {dim}")


def _worst_violation(cases) -> float:
    """Worst (lhs - rhs) / scale over the cases (lhs, rhs[, scale]) and their
    trials; scale defaults to rhs."""
    return max(float(np.max((lhs - rhs) / np.maximum(scale[0] if scale else rhs, 1e-300)))
               for lhs, rhs, *scale in cases)


def _reports(checks, trials: int, seed: int) -> list[SchattenReport]:
    """One report per check (name, cases[, SchattenReport keywords])."""
    return [SchattenReport(name, trials, _worst_violation(cases), seed, **dict(*options))
            for name, cases, *options in checks]


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
    sM = np.linalg.svd(np.block([[A, B], [C, D]]), compute_uv=False)
    sC = np.linalg.svd(C, compute_uv=False)
    sD = np.linalg.svd(D, compute_uv=False)
    half = np.arange(dim) // 2
    ks = np.arange(1, dim + 1, dtype=float)
    decay_norms = {p: _qnorms(sA, p)[:, None] for p in (0.5, 1.0, 2.0)}
    return _reports([
        # s_{2k}(A+B) <= s_{2k-1}(A+B) <= s_k(A) + s_k(B)
        ("singular_value_sum", [(sAB, sA[:, half] + sB[:, half], sA[:, :1] + sB[:, :1])]),
        # ||A + B||_p^p <= ||A||_p^p + ||B||_p^p for p < 1
        ("p_triangle", [(power_sum(sAB, p), power_sum(sA, p) + power_sum(sB, p))
                        for p in (0.3, 0.5, 0.9)]),
        # block matrix: ||M||_p^p <= sum of block norms^p at p = 1/2
        ("block_subadditivity", [(power_sum(sM, 0.5),
                                  sum(power_sum(s, 0.5) for s in (sA, sB, sC, sD)))]),
        # s_k(A) <= k^(-1/p) ||A||_p
        ("eigenvalue_decay", [(sA, ks ** (-1.0 / p) * norm, norm)
                              for p, norm in decay_norms.items()]),
        # ||AB||_p <= ||A||_p1 ||B||_p2 with 1/p = 1/p1 + 1/p2
        ("hoelder_product", [(_qnorms(sProd, p), _qnorms(sA, p1) * _qnorms(sB, p2))
                             for p, p1, p2 in ((1.0, 2.0, 2.0), (0.5, 1.0, 1.0),
                                               (2.0 / 3.0, 1.0, 2.0), (1.0, 1.0, np.inf))]),
        # ||A||_p2 <= ||A||_p1 for p1 < p2
        ("norm_monotonicity", [(_qnorms(sA, p2), _qnorms(sA, p1))
                               for p1, p2 in ((0.5, 1.0), (1.0, 2.0), (2.0, np.inf), (0.7, 5.0))]),
    ], trials, seed)


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

    sA = np.linalg.svd(A_general, compute_uv=False)
    sAdag = np.linalg.svd(np.conj(np.swapaxes(A_general, -1, -2)), compute_uv=False)

    def cross_singular_values(A_stack):
        """Singular values of the commutator [A, P] and of the compression PA(1-P)."""
        comm = A_stack @ P - P @ A_stack
        comp = P @ A_stack @ one_minus_P
        s_comm = np.linalg.svd(comm, compute_uv=False)
        s_comp = np.linalg.svd(comp, compute_uv=False)
        return s_comm, s_comp

    s_comm, s_comp = cross_singular_values(A_herm)
    s_comm_general, s_comp_general = cross_singular_values(A_general)
    return _reports([
        # (i) ||A||_q = ||A*||_q
        ("conjugation_invariance", [(np.abs(_qnorms(sA, q) - _qnorms(sAdag, q)), 0.0,
                                     _qnorms(sA, q)) for q in (0.7, 1.0, 2.0)],
         {"slack_tolerance": 1e-12}),
        # (ii) ||[A, B]||_q^q <= 2 ||BA(1-B)||_q^q, Hermitian A, projection B
        ("commutator_two_sided", [(power_sum(s_comm, q), 2.0 * power_sum(s_comp, q))
                                  for q in (0.4, 0.7, 1.0)]),
        ("commutator_one_sided_form", [(_qnorms(s_comm, q), _qnorms(s_comp, q))
                                       for q in (0.4, 0.7, 1.0)], {"informational": True}),
        # (iii) ||BA(1-B)||_q <= ||[A, B]||_q for any A, projection B
        ("projection_compression", [(_qnorms(s_comp_general, q), _qnorms(s_comm_general, q))
                                    for q in (0.5, 1.0, 2.0)]),
    ], trials, seed)
