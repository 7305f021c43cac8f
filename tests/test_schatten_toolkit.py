import numpy as np
import pytest

from diamond_entropy import (
    RenyiOrder,
    eta,
    verify_commutator_lemma,
    verify_inequalities,
)
from diamond_entropy.schatten_toolkit import complex_gaussian, power_sum, random_projections
from proof_probes import (
    VacuousBoundError,
    check_szego_bound,
    localized_eta,
    schatten_norm,
    singular_values,
)


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(singular_values(np.eye(3)).values, [1, 1, 1])

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        u *= 2.0 / np.linalg.norm(u)
        v *= 3.0 / np.linalg.norm(v)
        s = singular_values(np.outer(u, v.conj())).values
        assert s[0] == pytest.approx(6.0, rel=1e-12)
        assert np.abs(s[1:]).max() < 1e-12

    def test_gram_matrix_oracle(self):
        rng = np.random.default_rng(7)
        A = complex_gaussian(rng, (8, 8))
        s = singular_values(A).values
        gram = np.sqrt(np.clip(np.linalg.eigvalsh(A.conj().T @ A), 0, None))[::-1]
        assert np.abs(s - gram).max() < 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        A = complex_gaussian(rng, (6, 6))
        U, _ = np.linalg.qr(complex_gaussian(rng, (6, 6)))
        V, _ = np.linalg.qr(complex_gaussian(rng, (6, 6)))
        assert np.abs(
            singular_values(U @ A @ V).values - singular_values(A).values
        ).max() < 1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            singular_values(np.array([[np.nan, 0], [0, 1]]))


class TestSchattenNorm:
    def test_identity_trace_norm(self):
        assert schatten_norm(np.eye(5), 1.0) == pytest.approx(5.0, rel=1e-14)

    def test_identity_operator_norm(self):
        assert schatten_norm(np.eye(5), np.inf) == pytest.approx(1.0, rel=1e-14)

    def test_half_norm_recomputation(self):
        rng = np.random.default_rng(3)
        A = complex_gaussian(rng, (6, 6))
        s = singular_values(A).values
        assert schatten_norm(A, 0.5) == pytest.approx(np.sum(np.sqrt(s)) ** 2, rel=1e-12)

    def test_monotonicity_in_p(self):
        rng = np.random.default_rng(5)
        A = complex_gaussian(rng, (7, 7))
        norms = [schatten_norm(A, p) for p in (0.5, 1.0, 2.0, np.inf)]
        assert all(a >= b - 1e-10 * a for a, b in zip(norms, norms[1:]))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.0)


class TestPowerSum:
    def test_only_values_at_the_rounding_floor_left_out(self):
        # cut at s_1 * size * eps: 4 * 2.2e-16 = 8.9e-16 in the first row,
        # 1e-15 * 4 * eps = 8.9e-31 in the second, which keeps its 1e-17
        s = np.array([[1.0, 0.5, 1e-17, 0.0], [1e-15, 1e-16, 1e-17, 0.0]])
        q = 0.4
        np.testing.assert_array_equal(
            power_sum(s, q), [np.sum(s[0, :2] ** q), np.sum(s[1, :3] ** q)])
        # a larger matrix dimension raises the cut: 1e-15 * 2^47 * eps = 3.1e-17
        assert power_sum(s[1], q, size=2**47) == np.sum(s[1, :2] ** q)

    def test_rows_without_floor_values_are_plain_sums(self):
        s = np.linalg.svd(complex_gaussian(np.random.default_rng(4), (50, 6, 6)),
                          compute_uv=False)
        for q in (0.3, 0.5, 2.0):
            np.testing.assert_array_equal(power_sum(s, q), np.sum(s**q, axis=-1))


class TestVerifyInequalities:
    def test_all_pass_on_seeded_trials(self):
        for dim in (4, 8, 16):
            for report in verify_inequalities(dim, 100, 42):
                assert report.passed, report
                assert report.trials == 100
                assert report.seed == 42

    def test_equality_case_singular_value_sum(self):
        # A = B = identity: s_{2k-1}(A+B) = 2 = s_k(A) + s_k(B)
        s_sum = singular_values(2 * np.eye(4)).values
        s_single = singular_values(np.eye(4)).values
        for k in (1, 2):
            assert s_sum[2 * k - 2] <= s_single[k - 1] * 2 + 1e-15

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            verify_inequalities(1, 10, 0)
        with pytest.raises(ValueError):
            verify_inequalities(64, 10, 0)
        with pytest.raises(ValueError):
            verify_inequalities(8, 0, 0)

    def test_deterministic_given_seed(self):
        a = verify_inequalities(8, 20, 123)
        b = verify_inequalities(8, 20, 123)
        assert [r.max_violation for r in a] == [r.max_violation for r in b]


class TestCommutatorLemma:
    def test_reports_pass(self):
        for report in verify_commutator_lemma(8, 100, 7):
            assert report.passed, report

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_dim_3_passes(self, seed):
        # [A, P] for a rank-1 P at dim 3 has one zero singular value, which
        # comes out as rounding noise; raised to q = 0.4 it exceeded the slack
        # of a bound that holds with equality before power_sum's cut
        for report in verify_commutator_lemma(3, 1000, seed):
            assert report.passed, report

    def test_conjugation_invariance_tight(self):
        reports = {r.inequality_name: r for r in verify_commutator_lemma(8, 50, 1)}
        assert reports["conjugation_invariance"].max_violation < 1e-12

    def test_one_sided_form_recorded_as_violated(self):
        # the stated form without the factor 2 fails for Hermitian inputs by
        # about 2^(1/q) - 1; it is informational, never asserted
        reports = {r.inequality_name: r for r in verify_commutator_lemma(8, 50, 1)}
        rep = reports["commutator_one_sided_form"]
        assert rep.informational
        assert rep.max_violation > 0.1

    def test_singular_values_computed_once_per_stack(self, monkeypatch):
        # A, A*, and for each of the two inputs [A, P] and PA(1-P): 6 stacks
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        verify_commutator_lemma(4, 5, 0)
        assert len(calls) == 6

    def test_identity_projection_trivial(self):
        rng = np.random.default_rng(0)
        A = complex_gaussian(rng, (5, 5))
        B = np.eye(5)
        assert np.abs(A @ B - B @ A).max() < 1e-15
        assert np.abs(B @ A @ (np.eye(5) - B)).max() < 1e-15

    def test_rank_one_projection_compression_bound(self):
        rng = np.random.default_rng(9)
        A = complex_gaussian(rng, (4, 4))
        B = np.diag([1.0, 0, 0, 0]).astype(complex)
        lhs = schatten_norm(B @ A @ (np.eye(4) - B), 1.0)
        rhs = schatten_norm(A @ B - B @ A, 1.0)
        assert lhs <= rhs + 1e-12


def random_bounded_hermitian(rng, dim):
    """Hermitian matrix with spectrum inside [0, 1]."""
    G = complex_gaussian(rng, (dim, dim))
    H = 0.5 * (G + G.conj().T)
    ev, V = np.linalg.eigh(H)
    scaled = (ev - ev.min()) / (ev.max() - ev.min())
    return (V * scaled) @ V.conj().T


class TestSzegoBound:
    def test_commuting_inputs_signal_vacuous(self):
        A = np.diag([0.2, 0.8]).astype(complex)
        P = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(VacuousBoundError):
            check_szego_bound(A, P, RenyiOrder(2.0), q=0.8, sigma=0.6)

    def test_ratio_finite_and_stable_over_trials(self):
        rng = np.random.default_rng(2024)
        ratios = []
        for _ in range(100):
            A = random_bounded_hermitian(rng, 8)
            P = random_projections(rng, 1, 8, 4)[0]
            ratios.append(check_szego_bound(A, P, RenyiOrder(2.0), q=0.8, sigma=0.6))
        ratios = np.array(ratios)
        assert np.all(np.isfinite(ratios))
        assert ratios.max() < 10.0 * np.median(ratios)

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        A = random_bounded_hermitian(rng, 4)
        P = random_projections(rng, 1, 4, 2)[0]
        with pytest.raises(ValueError):
            check_szego_bound(A, P, RenyiOrder(2.0), q=0.4, sigma=0.3)
        with pytest.raises(ValueError):
            check_szego_bound(A, P, RenyiOrder(2.0), q=0.8, sigma=0.9)
        with pytest.raises(ValueError):
            check_szego_bound(2 * A, P, RenyiOrder(2.0), q=0.8, sigma=0.6)
        with pytest.raises(ValueError):
            check_szego_bound(A, A, RenyiOrder(2.0), q=0.8, sigma=0.6)

    def test_localized_eta_partition(self):
        order = RenyiOrder(2.0)
        t = np.linspace(0, 1, 101)
        low = localized_eta(order, t, 0.0)
        high = localized_eta(order, t, 1.0)
        np.testing.assert_allclose(low + high, eta(order, t), atol=1e-14)
        assert np.all(low[t >= 0.65] == 0.0)
        assert np.all(high[t <= 0.35] == 0.0)
        np.testing.assert_allclose(low[t <= 0.35], eta(order, t[t <= 0.35]), atol=1e-14)
