import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

from diamond_entropy import (
    ConvergenceError,
    GridRule,
    PhysicalParams,
    RenyiOrder,
    build_grid,
    entanglement_entropy,
    entropy_from_eigenvalues,
    eta,
    operator_eigenvalues,
    subtraction_trace,
)
from diamond_entropy import discretization, entropy_pipeline
from oracle import direct_spectrum

K1 = RenyiOrder(1.0)


class TestEntropyFromEigenvalues:
    def test_endpoint_spectrum_gives_zero(self):
        value, report = entropy_from_eigenvalues(np.array([0.0, 1.0, 0.0, 1.0]), K1)
        assert value == 0.0
        assert report.count == 0

    def test_single_half_eigenvalue(self):
        value, _ = entropy_from_eigenvalues(np.array([0.5]), K1)
        assert value == pytest.approx(np.log(2.0), rel=1e-15)

    def test_clamping_within_tolerance(self):
        value, report = entropy_from_eigenvalues(np.array([-1e-8, 0.5, 1.0 + 1e-8]), K1)
        assert report.count == 2
        assert report.max_distance == pytest.approx(1e-8, rel=1e-6)
        assert value == pytest.approx(np.log(2.0), rel=1e-12)

    def test_out_of_range_signals(self):
        with pytest.raises(ConvergenceError):
            discretization.validate_spectrum_range(np.array([0.5, 1.5]))

    @settings(max_examples=300, deadline=None)
    @given(
        ev=arrays(
            float,
            st.integers(1, 40),
            # weight the draws toward both endpoints, where the clamp acts
            elements=st.one_of(
                st.floats(-1e-6, 1e-6),
                st.floats(1.0 - 1e-6, 1.0 + 1e-6),
                st.floats(-1e-6, 1.0 + 1e-6),
            ),
        ),
        kappa=st.floats(0.05, 20.0),
    )
    def test_clamp_report_matches_out_of_range_entries(self, ev, kappa):
        value, report = entropy_from_eigenvalues(ev, RenyiOrder(kappa))
        distances = np.maximum(-ev, ev - 1.0)
        outside = distances > 0.0
        assert value >= 0.0
        assert report.count == int(np.count_nonzero(outside))
        assert report.max_distance == (float(distances[outside].max()) if outside.any() else 0.0)


class TestTruncatedTrace:
    def test_signals_on_unresolved_operator(self):
        params = PhysicalParams(mass=0.0, epsilon=0.002, lam=1.0)
        ev = direct_spectrum(params, build_grid(64, 1.0))
        with pytest.raises(ConvergenceError):
            discretization.validate_spectrum_range(ev)

    def test_matches_eigenvalue_path(self):
        params = PhysicalParams(mass=0.0, epsilon=0.2, lam=1.0)
        grid = build_grid(64, 1.0)
        value, _ = entropy_from_eigenvalues(direct_spectrum(params, grid), K1)
        ev = operator_eigenvalues(params, grid, use_cache=False)
        expected, _ = entropy_from_eigenvalues(ev, K1)
        assert value == pytest.approx(expected, rel=1e-10)


class TestSubtractionTrace:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
    def test_massless_closed_form(self, eps):
        params = PhysicalParams(mass=0.0, epsilon=eps, lam=1.0)
        value = subtraction_trace(params, K1)
        assert value == pytest.approx(np.pi / (6 * eps), rel=1e-6)

    @pytest.mark.parametrize("kappa", [0.01, 0.5, 1.0, 2.0, 3.0, 20.0, 100.0, 1e4])
    def test_massless_closed_form_every_order(self, kappa):
        # int_0^inf eta_kappa(exp(-x)) dx = pi^2 (kappa + 1) / (12 kappa)
        params = PhysicalParams(mass=0.0, epsilon=0.002, lam=1.0)
        value = subtraction_trace(params, RenyiOrder(kappa))
        expected = np.pi * (kappa + 1.0) / (12.0 * kappa * params.epsilon)
        assert value == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("mass, eps, kappa", [(1.0, 0.002, 1.0), (1.0, 0.05, 2.0),
                                                  (5.0, 0.3, 0.5), (0.3, 1.0, 0.01),
                                                  (0.3, 1.0, 20.0), (0.69, 1.0, 1000.0),
                                                  (40.0, 1.0, 0.01)])
    def test_matches_30_digit_oracle(self, mass, eps, kappa):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            a, k = mpmath.mpf(mass) * mpmath.mpf(eps), mpmath.mpf(kappa)

            def integrand(x):
                r = mpmath.sqrt(x * x + a * a)
                p, q = mpmath.exp(-r), -mpmath.expm1(-r)
                if k == 1:
                    return -p * mpmath.log(p) - q * mpmath.log(q)
                return mpmath.log(p**k + q**k) / (1 - k)

            breaks = [0] + [mpmath.mpf(2) ** j for j in range(-8, 9)] + [mpmath.inf]
            oracle = float(mpmath.quad(integrand, breaks) / (mpmath.pi * eps))
        params = PhysicalParams(mass=mass, epsilon=eps, lam=1.0)
        assert subtraction_trace(params, RenyiOrder(kappa)) == pytest.approx(oracle, rel=1e-13)

    def test_unresolved_integrand_signals(self, monkeypatch):
        # an integrand the 16- and 32-node panel sums disagree on
        monkeypatch.setattr(entropy_pipeline, "_eta_of_log",
                            lambda order, log_t: np.sin(1e3 * np.exp(log_t)))
        params = PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0)
        with pytest.raises(ConvergenceError, match="bulk-term quadrature"):
            subtraction_trace(params, K1)

    @pytest.mark.parametrize("kappa", [0.05, 1.0])
    def test_node_count_bounded_at_large_mass_times_eps(self, monkeypatch, kappa):
        sizes = []

        def recording(edges, per):
            x, w = discretization._panel_nodes(edges, per)
            sizes.append(x.size)
            return x, w

        monkeypatch.setattr(entropy_pipeline, "_panel_nodes", recording)
        params = PhysicalParams(mass=1e4, epsilon=1.0, lam=1.0)
        assert np.isfinite(subtraction_trace(params, RenyiOrder(kappa)))
        assert sizes and max(sizes) <= 4096

    @pytest.mark.parametrize("kappa", [1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-11])
    def test_orders_next_to_von_neumann(self, kappa):
        # eta's general form cancels within ~1e-8 of kappa = 1, which the
        # 16/32-node check once reported as an unresolved bulk term
        for a in np.linspace(0.0, 2.0, 201):
            params = PhysicalParams(mass=a / 0.1, epsilon=0.1, lam=1.0)
            value = subtraction_trace(params, RenyiOrder(kappa))
            assert value == pytest.approx(subtraction_trace(params, K1), rel=1e-8)

    def test_dilogarithm_gate(self):
        # quadrature oracle for the closed form: int_0^1 eta_1(u)/u du = pi^2/6
        integrand = lambda u: eta(K1, u) / u
        value, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=400)
        assert err < 1e-10
        assert value == pytest.approx(np.pi**2 / 6.0, abs=1e-10)

    def test_strong_damping_limit(self):
        params = PhysicalParams(mass=1.0, epsilon=50.0, lam=1.0)
        assert subtraction_trace(params, K1) < 1e-15

    def test_lambda_linearity(self):
        pa = PhysicalParams(mass=0.5, epsilon=0.3, lam=1.0)
        pb = PhysicalParams(mass=0.5, epsilon=0.3, lam=2.5)
        assert subtraction_trace(pb, K1) == pytest.approx(
            2.5 * subtraction_trace(pa, K1), rel=1e-12
        )

    def test_self_convergence_against_fixed_rule(self):
        # independent oracle: composite Gauss-Legendre at two resolutions
        params = PhysicalParams(mass=1.0, epsilon=0.05, lam=1.0)
        order = RenyiOrder(2.0)
        panel = subtraction_trace(params, order)
        a = params.epsilon * params.mass

        def fixed_gl(n):
            x, w = np.polynomial.legendre.leggauss(n)
            x_max = 120.0
            x = 0.5 * x_max * (x + 1)
            w = 0.5 * x_max * w
            vals = eta(order, np.exp(-np.hypot(x, a)))
            return params.lam * np.sum(w * vals) / (np.pi * params.epsilon)

        coarse, fine = fixed_gl(200), fixed_gl(400)
        assert abs(fine - coarse) / abs(fine) < 1e-8
        assert panel == pytest.approx(fine, rel=1e-8)


class TestEntanglementEntropy:
    def test_frozen_value_and_convergence(self):
        params = PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0)
        res = entanglement_entropy(params, K1)
        assert res.converged
        # frozen from the converged pipeline (grid-doubling stable to 1e-13);
        # the midpoint cross-check below guards the same number independently
        assert res.entropy == pytest.approx(1.027821, abs=2e-3)
        assert res.entropy == res.truncated_trace - res.subtraction_trace
        assert res.entropy >= -1e-6 * res.grid_size

    def test_cross_rule_agreement(self):
        params = PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0)
        gl = entanglement_entropy(params, K1, rule=GridRule.GAUSS_LEGENDRE)
        mid = entanglement_entropy(params, K1, rule=GridRule.MIDPOINT)
        assert mid.converged
        assert abs(gl.entropy - mid.entropy) / abs(gl.entropy) < 0.03

    def test_translation_invariance(self):
        params = PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0)
        grid = build_grid(256, 1.0)
        sub = subtraction_trace(params, K1)
        values = []
        for offset in (0.0, 5.0):
            ev = operator_eigenvalues(params, grid, x_offset=offset, use_cache=False)
            trace, _ = entropy_from_eigenvalues(ev, K1)
            values.append(trace - sub)
        assert abs(values[0] - values[1]) < 1e-10

    def test_dilation_identity_and_lambda_doubling(self):
        # massless exact scaling: S(lam, eps) = S(1, eps/lam); the doubling
        # difference at fixed eps is ~ (1/3) ln 2, about 13% of S here
        s_lam2 = entanglement_entropy(
            PhysicalParams(mass=0.0, epsilon=0.02, lam=2.0), K1
        ).entropy
        s_half_eps = entanglement_entropy(
            PhysicalParams(mass=0.0, epsilon=0.01, lam=1.0), K1
        ).entropy
        s_base = entanglement_entropy(
            PhysicalParams(mass=0.0, epsilon=0.02, lam=1.0), K1
        ).entropy
        assert s_lam2 == pytest.approx(s_half_eps, rel=1e-2)
        rel_gap = abs(s_lam2 - s_base) / s_base
        assert 0.08 < rel_gap < 0.20

    def test_monotone_growth_in_log_inverse_eps(self):
        values = [
            entanglement_entropy(PhysicalParams(mass=0.0, epsilon=e, lam=1.0), K1).entropy
            for e in (0.5, 0.1, 0.02)
        ]
        assert values[0] < values[1] < values[2]

    def test_entropy_decreasing_in_kappa(self):
        params = PhysicalParams(mass=0.0, epsilon=0.05, lam=1.0)
        entropies = [
            entanglement_entropy(params, RenyiOrder(k)).entropy for k in (0.5, 1.0, 2.0, 3.0)
        ]
        assert all(s > 0 for s in entropies)
        assert all(a > b for a, b in zip(entropies, entropies[1:]))

    def test_small_n_rejected(self):
        params = PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0)
        with pytest.raises(ValueError):
            entanglement_entropy(params, K1, n=32)

    def test_unresolvable_epsilon_signals(self):
        params = PhysicalParams(mass=0.0, epsilon=1e-5, lam=1.0)
        with pytest.raises(ConvergenceError):
            entanglement_entropy(params, K1, n=128)
