import numpy as np
import pytest

from diamond_entropy import (
    PhysicalParams,
    asymptotics,
    hamiltonian_symbol,
    limit_symbol,
    omega,
    rescaled_symbol,
    spectral_projection,
)
from proof_probes import low_part, regularized_symbol


def hermiticity_defect(mat):
    return np.abs(mat - mat.conj().T).max()


class TestPhysicalParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalParams(mass=-1.0, epsilon=0.1, lam=1.0)
        with pytest.raises(ValueError):
            PhysicalParams(mass=0.0, epsilon=0.0, lam=1.0)
        with pytest.raises(ValueError):
            PhysicalParams(mass=0.0, epsilon=0.1, lam=-2.0)


class TestOmega:
    def test_values(self):
        assert omega(0.0, 1.0) == 1.0
        assert omega(3.0, 4.0) == 5.0
        assert omega(-3.0, 4.0) == 5.0

    def test_lower_bounds(self):
        ks = np.linspace(-10, 10, 101)
        w = omega(ks, 0.7)
        assert np.all(w >= np.abs(ks))
        assert np.all(w >= 0.7)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            omega(1.0, -0.5)


class TestHamiltonianSymbol:
    def test_massive_at_zero_momentum(self):
        np.testing.assert_allclose(hamiltonian_symbol(0.0, 1.0), [[0, 1], [1, 0]])

    def test_traceless(self):
        H = hamiltonian_symbol(2.7, 0.3)
        assert abs(np.trace(H)) == 0.0
        assert np.linalg.det(H) == pytest.approx(-(2.7**2 + 0.3**2), rel=1e-15)

    def test_eigenvalues_pm_omega(self):
        evals = np.linalg.eigvalsh(hamiltonian_symbol(3.0, 4.0))
        np.testing.assert_allclose(np.sort(evals), [-5.0, 5.0], rtol=1e-14)


class TestSpectralProjection:
    def test_negative_projection_value(self):
        np.testing.assert_allclose(
            spectral_projection(0.0, 1.0, -1), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15
        )

    def test_completeness(self):
        total = spectral_projection(1.3, 0.7, +1) + spectral_projection(1.3, 0.7, -1)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-15)

    def test_idempotent_and_rank_one(self):
        E = spectral_projection(-2.0, 0.5, -1)
        assert np.linalg.norm(E @ E - E, "fro") < 1e-14
        assert np.trace(E).real == pytest.approx(1.0, abs=1e-14)

    def test_orthogonality(self):
        Ep = spectral_projection(0.9, 1.1, +1)
        Em = spectral_projection(0.9, 1.1, -1)
        assert np.abs(Ep @ Em).max() < 1e-15

    def test_degenerate_point_rejected(self):
        with pytest.raises(ValueError):
            spectral_projection(0.0, 0.0, -1)

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            spectral_projection(1.0, 1.0, 2)


class TestRegularizedSymbol:
    def test_eigenvalues_massless(self):
        params = PhysicalParams(mass=0.0, epsilon=1.0, lam=1.0)
        evals = np.linalg.eigvalsh(regularized_symbol(params, 1.0))
        np.testing.assert_allclose(np.sort(evals), [0.0, np.exp(-1.0)], atol=1e-15)

    def test_massless_diagonal_form(self):
        params = PhysicalParams(mass=0.0, epsilon=0.5, lam=1.0)
        np.testing.assert_allclose(
            regularized_symbol(params, 1.0),
            [[np.exp(-0.5), 0.0], [0.0, 0.0]],
            atol=1e-15,
        )
        # negative momenta occupy the other chiral component
        np.testing.assert_allclose(
            regularized_symbol(params, -1.0),
            [[0.0, 0.0], [0.0, np.exp(-0.5)]],
            atol=1e-15,
        )

    def test_large_momentum_damping(self):
        params = PhysicalParams(mass=1.0, epsilon=0.3, lam=1.0)
        assert np.abs(regularized_symbol(params, 300.0)).max() < 1e-38

    @pytest.mark.parametrize("k", [-3.0, -0.2, 0.0, 0.4, 7.0])
    @pytest.mark.parametrize("mass,eps", [(0.0, 0.3), (1.5, 0.3), (0.5, 2.0)])
    def test_hermitian_and_contractive(self, k, mass, eps):
        params = PhysicalParams(mass=mass, epsilon=eps, lam=1.0)
        A = regularized_symbol(params, k)
        assert hermiticity_defect(A) < 1e-14
        evals = np.linalg.eigvalsh(A)
        assert evals.min() >= -1e-15
        assert evals.max() <= np.exp(-eps * mass) + 1e-15


class TestRescaledSymbol:
    def test_consistency_with_damped_symbol(self):
        lhs = rescaled_symbol(10.0, 1.0, 0.3)
        rhs = regularized_symbol(PhysicalParams(mass=1.0, epsilon=0.1, lam=1.0), 3.0)
        assert np.abs(lhs - rhs).max() < 1e-14

    def test_large_alpha_limits(self):
        target_pos = np.exp(-1.0) * np.diag([1.0, 0.0])
        target_neg = np.exp(-1.0) * np.diag([0.0, 1.0])
        assert np.abs(rescaled_symbol(1e12, 1.0, 1.0) - target_pos).max() < 1e-10
        assert np.abs(rescaled_symbol(1e12, 1.0, -1.0) - target_neg).max() < 1e-10

    def test_massless_equals_limit_symbol(self):
        for xi in (-2.0, -0.4, 0.3, 5.0):
            assert np.abs(rescaled_symbol(7.0, 0.0, xi) - limit_symbol(xi)).max() == 0.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            rescaled_symbol(0.0, 1.0, 1.0)


class TestLimitSymbol:
    def test_branch_values(self):
        np.testing.assert_allclose(limit_symbol(np.log(2.0)), [[0.5, 0], [0, 0]], rtol=1e-15)
        np.testing.assert_allclose(limit_symbol(-np.log(2.0)), [[0, 0], [0, 0.5]], rtol=1e-15)

    def test_symmetric_convention_at_zero(self):
        np.testing.assert_allclose(limit_symbol(0.0), [[0.5, 0], [0, 0.5]])


class TestSplitSymbol:
    def test_low_part_vanishes_beyond_threshold(self):
        thr = np.log(100.0)
        for k in (thr, thr + 0.5, -thr - 3.0, 17.0):
            assert np.abs(low_part(100.0, 1.0, k)).max() == 0.0

    def test_massless_low_part_identically_zero(self):
        for k in np.linspace(-8, 8, 41):
            assert np.abs(low_part(100.0, 0.0, k)).max() == 0.0

    def test_defining_identities_pointwise(self):
        alpha, mass = 50.0, 1.3
        thr = np.log(alpha)
        for k in (-2 * thr, -thr, -0.6 * thr, 0.0, 0.3 * thr, thr, 1.7 * thr):
            full = rescaled_symbol(alpha, mass, k)
            if abs(k) >= thr:
                assert np.abs(low_part(alpha, mass, k)).max() == 0.0
            else:
                recombined = limit_symbol(k) + low_part(alpha, mass, k)
                assert np.abs(recombined - full).max() < 1e-15

    def test_high_part_deviation_bound_and_decay(self):
        # sup over |k| >= log(alpha) of |rescaled(k) - limit(k)| <= C m / log(alpha)
        # with a small constant, and the sup decays along an increasing alpha grid
        mass = 1.0
        sups = []
        for alpha in (np.e**2.5, np.e**4, np.e**7, np.e**10):
            dev = asymptotics._high_low_sup_deviation(alpha, mass)
            sups.append(dev)
            assert dev <= 5.0 * mass / np.log(alpha)
        assert all(a > b for a, b in zip(sups, sups[1:]))
