import mpmath as mp
import numpy as np
import pytest
from scipy.special import k0, k1  # test-only reference

from diamond_entropy import (
    ConvergenceError,
    PhysicalParams,
    build_grid,
    discretization,
    kernel_blocks,
    kernel_eval,
    operator_eigenvalues,
)
from diamond_entropy.kernel_eval import massive_scalar_integrals
from oracle import QuadratureSpec, default_quadrature_spec, kernel_matrix, kernel_quadrature

TWO_PI = 2.0 * np.pi


def massless(eps, u):
    return kernel_matrix(PhysicalParams(mass=0.0, epsilon=eps, lam=1.0), u)


class TestMasslessClosed:
    def test_at_zero_separation(self):
        mat = massless(1.0, 0.0)
        np.testing.assert_allclose(mat, np.diag([1 / TWO_PI, 1 / TWO_PI]), rtol=1e-15)

    def test_unit_separation_entry(self):
        mat = massless(1.0, 1.0)
        assert mat[0, 0] == pytest.approx((1 + 1j) / (4 * np.pi), rel=1e-15)

    def test_conjugate_pair_symmetry_exact(self):
        a = massless(0.3, 2.2)
        b = massless(0.3, -2.2)
        assert np.abs(a - b.conj().T).max() == 0.0

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            PhysicalParams(mass=0.0, epsilon=0.0, lam=1.0)

    def test_scaling_covariance_exact(self):
        # K_{eps,0}(u) = (1/s) K_{eps/s,0}(u/s)
        eps, u, s = 0.4, 1.7, 3.0
        lhs = massless(eps, u)
        rhs = massless(eps / s, u / s) / s
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14)


class TestQuadrature:
    def test_massless_zero_separation(self):
        params = PhysicalParams(mass=0.0, epsilon=1.0, lam=1.0)
        mat = kernel_quadrature(params, 0.0)
        np.testing.assert_allclose(np.diag(mat), [1 / TWO_PI, 1 / TWO_PI], rtol=1e-10)

    @pytest.mark.parametrize("u", [0.0, 0.7, -1.9, 3.3])
    def test_massless_offdiagonal_vanishes(self, u):
        params = PhysicalParams(mass=0.0, epsilon=0.5, lam=1.0)
        mat = kernel_quadrature(params, u)
        assert abs(mat[0, 1]) < 1e-12
        assert abs(mat[1, 0]) < 1e-12

    def test_massive_scalar_part_matches_bessel_identity(self):
        # (1/4pi) int e^{-eps*omega} dk = (1/4pi) * 2 m eps K1(m eps)/eps at u=0
        params = PhysicalParams(mass=1.0, epsilon=0.5, lam=1.0)
        mat = kernel_quadrature(params, 0.0)
        scalar = (mat[0, 0] + mat[1, 1]).real / 2.0
        expected = 2.0 * 1.0 * k1(0.5) / (4 * np.pi)
        assert scalar == pytest.approx(expected, rel=1e-10)

    def test_mass_coupling_is_k0(self):
        # off-diagonal entry = -Fm/(4 pi) with Fm = 2 K0(1) at m=1, eps=1, u=0
        params = PhysicalParams(mass=1.0, epsilon=1.0, lam=1.0)
        mat = kernel_quadrature(params, 0.0)
        assert mat[0, 1].real == pytest.approx(-2.0 * k0(1.0) / (4 * np.pi), rel=1e-10)
        # odd integrand at u=0: chiral entries coincide
        assert abs(mat[0, 0] - mat[1, 1]) < 1e-12

    def test_oscillation_budget_signal(self):
        params = PhysicalParams(mass=0.0, epsilon=1.0, lam=1.0)
        with pytest.raises(ConvergenceError):
            kernel_quadrature(params, 1e9, max_panels=1000)

    def test_spec_tail_validation(self):
        params = PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0)
        bad = QuadratureSpec(k_max=10.0, panels=16)  # exp(-1) >> 1e-12
        with pytest.raises(ValueError):
            kernel_quadrature(params, 0.0, bad)

    def test_default_spec_invariant(self):
        for mass, eps in ((0.0, 0.1), (2.0, 0.5), (30.0, 0.9)):
            params = PhysicalParams(mass=mass, epsilon=eps, lam=1.0)
            spec = default_quadrature_spec(params)
            damping = np.exp(-eps * np.hypot(spec.k_max, mass))
            assert damping <= spec.tail_tol * (1 + 1e-9)


class TestBesselPath:
    def test_matches_quadrature_single_point(self):
        params = PhysicalParams(mass=2.0, epsilon=0.4, lam=1.0)
        kq = kernel_quadrature(params, 0.7)
        kb = kernel_matrix(params, 0.7)
        assert np.abs(kq - kb).max() < 1e-9

    def test_f1_vanishes_at_zero_separation(self):
        params = PhysicalParams(mass=1.0, epsilon=1.0, lam=1.0)
        mat = kernel_matrix(params, 0.0)
        assert mat[0, 0] == mat[1, 1]
        assert mat[0, 0].imag == 0.0

    def test_conjugate_pair_symmetry(self):
        params = PhysicalParams(mass=1.3, epsilon=0.6, lam=1.0)
        a = kernel_matrix(params, 1.1)
        b = kernel_matrix(params, -1.1)
        assert np.abs(a - b.conj().T).max() < 1e-16

    def test_massless_input_rejected(self):
        with pytest.raises(ValueError):
            massive_scalar_integrals(0.0, 1.0, 0.0)

    def test_nonfinite_bessel_signal(self):
        # subnormal m*r drives K1 to nan, which must be signalled
        params = PhysicalParams(mass=5e-324, epsilon=1.0, lam=1.0)
        with pytest.raises(ConvergenceError):
            kernel_matrix(params, 0.0)


class TestBesselSeries:
    def test_k0_k1_match_scipy(self):
        z = np.concatenate([
            np.geomspace(1e-12, 2.0, 2001),
            [np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0), 2.5, 50.0, 700.0],
        ])
        bk0, bk1 = kernel_eval._bessel_k0_k1(z)
        assert np.abs(bk0 / k0(z) - 1.0).max() <= 1e-14
        assert np.abs(bk1 / k1(z) - 1.0).max() <= 1e-14

    def test_far_field_matches_scipy(self):
        # the Chebyshev series for z > 2 on a dense grid out to where K0 and
        # K1 underflow to 0; in the subnormal range both round alike
        z = np.concatenate([[np.nextafter(2.0, 3.0)], np.geomspace(2.0, 745.0, 200001)[1:],
                            np.linspace(700.0, 745.0, 4501)])
        for ours, ref in ((kernel_eval._far_field(kernel_eval._K0_FAR, z), k0(z)),
                          (kernel_eval._far_field(kernel_eval._K1_FAR, z), k1(z))):
            assert np.all(np.abs(ours - ref) <= 1e-14 * ref)
            assert np.array_equal(ours == 0.0, ref == 0.0)

    def test_far_field_matches_mpmath(self):
        with mp.workdps(30):
            for z in (np.nextafter(2.0, 3.0), 2.5, 3.7, 8.0, 20.0, 150.0, 700.0):
                for coefficients, nu in ((kernel_eval._K0_FAR, 0), (kernel_eval._K1_FAR, 1)):
                    value = kernel_eval._far_field(coefficients, np.array([z]))[0]
                    assert abs(value / float(mp.besselk(nu, z)) - 1.0) <= 1e-15

    def test_far_field_coefficients_are_rounded_mpmath_values(self):
        # the Chebyshev coefficients of exp(z) sqrt(z) K(z) in t = 4/z - 1,
        # interpolated at 40 digits and rounded once (constant term in full)
        points = 64
        with mp.workdps(40):
            theta = [mp.pi * (j + mp.mpf(1) / 2) / points for j in range(points)]
            z = [4 / (1 + mp.cos(t)) for t in theta]
            for nu, stored in ((0, kernel_eval._K0_FAR), (1, kernel_eval._K1_FAR)):
                f = [mp.exp(x) * mp.sqrt(x) * mp.besselk(nu, x) for x in z]
                coefficients = [2 * mp.fsum(fj * mp.cos(k * t) for fj, t in zip(f, theta)) / points
                                for k in range(len(stored) + 1)]
                assert tuple(float(c) for c in coefficients[len(stored) - 1::-1]) == stored
                assert abs(coefficients[len(stored)]) < 2e-18  # the first term left out

    @pytest.mark.parametrize("mass", [1.0, 20.0])
    def test_far_field_sees_only_arguments_beyond_the_series(self, monkeypatch, mass):
        seen = {"k0": [], "k1": []}
        separations = []

        names = {kernel_eval._K0_FAR: "k0", kernel_eval._K1_FAR: "k1"}
        far_field = kernel_eval._far_field

        def recording(coefficients, z):
            seen[names[coefficients]].append(np.array(z, copy=True))
            return far_field(coefficients, z)

        def recording_blocks(params, u):
            separations.append(np.array(u, copy=True))
            return kernel_blocks(params, u)

        monkeypatch.setattr(kernel_eval, "_far_field", recording)
        monkeypatch.setattr(discretization, "kernel_blocks", recording_blocks)
        params = PhysicalParams(mass=mass, epsilon=0.05, lam=1.0)
        operator_eigenvalues(params, build_grid(256, 1.0), validate=False, use_cache=False)
        z = np.concatenate([(mass * np.hypot(params.epsilon, u)).ravel() for u in separations])
        beyond = z[z > 2.0]
        assert (beyond.size > 0) == (mass > 2.0)  # every m r <= 1.01 at m = 1
        for name in ("k0", "k1"):
            got = np.concatenate(seen[name]) if seen[name] else np.empty(0)
            assert np.array_equal(got, beyond)


class TestKernelBlocks:
    @pytest.mark.parametrize("mass", [0.0, 1.3])
    def test_vectorized_matches_pointwise(self, mass):
        params = PhysicalParams(mass=mass, epsilon=0.3, lam=1.0)
        u = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        parts = kernel_blocks(params, u)
        for part in parts[:2]:
            assert part.shape == u.shape and part.dtype == np.float64
        for idx in np.ndindex(u.shape):
            for part, value in zip(parts, kernel_blocks(params, u[idx])):
                assert np.broadcast_to(part, u.shape)[idx] == value

    def test_massless_coupling_is_scalar_zero(self):
        params = PhysicalParams(mass=0.0, epsilon=0.3, lam=1.0)
        _, _, c = kernel_blocks(params, np.linspace(-1.0, 1.0, 5))
        assert c == 0.0 and np.ndim(c) == 0

    def test_massless_parts_are_those_of_the_one_quotient(self):
        params = PhysicalParams(mass=0.0, epsilon=0.3, lam=1.0)
        u = np.linspace(-3.0, 3.0, 41)
        a, b, _ = kernel_blocks(params, u)
        k11 = 1.0 / (2.0 * np.pi * (params.epsilon - 1j * u))
        assert np.array_equal(a, k11.real) and np.array_equal(b, k11.imag)

    def test_massive_parts_are_the_scalar_integrals_over_4pi(self):
        params = PhysicalParams(mass=1.0, epsilon=0.3, lam=1.0)
        u = np.linspace(-3.0, 3.0, 41)
        F0, F1_imag, Fm = massive_scalar_integrals(1.0, 0.3, u)
        inv4pi = 1.0 / (4.0 * np.pi)
        for part, expected in zip(kernel_blocks(params, u), (F0, F1_imag, -Fm)):
            assert np.array_equal(part, inv4pi * expected)


class TestKernelProperties:
    @pytest.mark.parametrize("mass,eps", [(0.0, 0.5), (1.0, 0.5)])
    def test_hermitian_pair_symmetry_quadrature(self, mass, eps):
        params = PhysicalParams(mass=mass, epsilon=eps, lam=1.0)
        for u in (0.3, 1.7, 4.0):
            a = kernel_quadrature(params, u)
            b = kernel_quadrature(params, -u)
            assert np.abs(a - b.conj().T).max() < 1e-12

    def test_zero_separation_diagonal_bounds(self):
        for mass, eps in ((0.0, 0.2), (1.0, 0.2), (3.0, 1.5)):
            params = PhysicalParams(mass=mass, epsilon=eps, lam=1.0)
            mat = kernel_matrix(params, 0.0)
            for d in np.diag(mat):
                assert d.imag == 0.0
                assert 0.0 < d.real <= 1.0 / (TWO_PI * eps) + 1e-15

    def test_decay_monotone_beyond_epsilon(self):
        params = PhysicalParams(mass=1.0, epsilon=0.3, lam=1.0)
        us = np.linspace(0.5, 8.0, 30)
        norms = [np.abs(kernel_matrix(params, float(u))).max() for u in us]
        assert all(a >= b - 1e-15 for a, b in zip(norms, norms[1:]))

    def test_decay_bounded_by_c_over_u(self):
        eps = 0.3
        us = np.linspace(1.0, 20.0, 50)
        norms = np.array(
            [np.abs(massless(eps, float(u))).max() for u in us]
        )
        c_fit = float(np.max(norms * us))
        assert np.all(norms <= (c_fit + 1e-12) / us)
        assert c_fit < 1.0

    def test_massless_limit_of_quadrature(self):
        eps, u = 0.5, 0.8
        closed = massless(eps, u)
        errs = []
        for mass in (1e-3, 1e-5):
            params = PhysicalParams(mass=mass, epsilon=eps, lam=1.0)
            errs.append(np.abs(kernel_quadrature(params, u) - closed).max())
        assert errs[1] < errs[0]
        assert errs[1] < 1e-4

    def test_scaling_covariance_quadrature(self):
        eps, u, s = 0.4, 1.3, 2.0
        pa = PhysicalParams(mass=0.0, epsilon=eps, lam=1.0)
        pb = PhysicalParams(mass=0.0, epsilon=eps / s, lam=1.0)
        lhs = kernel_quadrature(pa, u)
        rhs = kernel_quadrature(pb, u / s) / s
        assert np.abs(lhs - rhs).max() < 1e-10
