import mpmath
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
from diamond_entropy import asymptotics, discretization, entropy_pipeline, quadrature
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

    def test_range_gate_message_shows_the_excess_over_one(self):
        # 1 + 2e-6 fails the gate, so the message must not round it to 1
        with pytest.raises(ConvergenceError, match=r"spectrum \[0\.000e\+00, 1\.000002\] leaves"):
            discretization.validate_spectrum_range(np.array([0.0, 1.0 + 2e-6]))

    def test_nan_fails_the_range_gate(self):
        with pytest.raises(ConvergenceError, match="leaves"):
            discretization.validate_spectrum_range(np.array([0.1, np.nan, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_eigenvalue_signals(self, bad):
        # matched_grid_entropy traces a spectrum no range gate has seen; a NaN
        # would otherwise count as eta = 0
        with pytest.raises(ConvergenceError, match="non-finite eigenvalue"):
            entropy_from_eigenvalues(np.array([0.5, bad]), K1)

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
        # the count leaves out the rounding band of N u; the distance does not
        value, report = entropy_from_eigenvalues(ev, RenyiOrder(kappa))
        distances = np.maximum(-ev, ev - 1.0)
        outside = distances > 0.0
        assert value >= 0.0
        assert report.count == int(np.count_nonzero(distances > ev.size * 2.0**-53))
        assert report.max_distance == (float(distances[outside].max()) if outside.any() else 0.0)

    def test_clamp_count_leaves_out_rounding_noise(self):
        ev = np.array([-3e-16, -1e-17, 0.3, 1.0 + 2.0**-52, 1.0])  # band 5 u = 5.6e-16
        assert entropy_from_eigenvalues(ev, K1)[1].count == 0
        ev[1] = -1e-9
        _, report = entropy_from_eigenvalues(ev, K1)
        assert report.count == 1 and report.max_distance == 1e-9

    @pytest.mark.parametrize("mass", [0.0, 1.0])
    def test_clamp_count_is_zero_on_a_resolved_grid(self, mass):
        # 116-120 eigenvalues of these spectra lie within 2.2e-16 outside [0, 1]
        params = PhysicalParams(mass=mass, epsilon=0.05, lam=1.0)
        result = entanglement_entropy(params, K1, n=512)
        assert result.converged and result.clamp_count == 0


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
        monkeypatch.setattr(entropy_pipeline, "eta_of_log",
                            lambda order, log_t: np.sin(1e3 * np.exp(log_t)))
        params = PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0)
        with pytest.raises(ConvergenceError, match="bulk-term quadrature"):
            subtraction_trace(params, K1)

    @pytest.mark.parametrize("kappa", [0.05, 1.0])
    def test_node_count_bounded_at_large_mass_times_eps(self, monkeypatch, kappa):
        sizes = []
        panel_nodes = quadrature.panel_nodes

        def recording(edges, per):
            x, w = panel_nodes(edges, per)
            sizes.append(x.size)
            return x, w

        monkeypatch.setattr(quadrature, "panel_nodes", recording)
        params = PhysicalParams(mass=1e4, epsilon=1.0, lam=1.0)
        assert np.isfinite(subtraction_trace(params, RenyiOrder(kappa)))
        assert sizes and max(sizes) <= 4096

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.69, 0.6931, 0.7, 2.0, 50.0])
    def test_panel_nodes_ascend_on_bulk_term_edges(self, monkeypatch, a):
        # panel_nodes returns its nodes in panel order, unsorted. Below ln 2
        # the panels graded toward x* stop at 1024 ulps of it, wide enough
        # that no two nodes, within a panel or across an edge, coincide.
        edge_sets = []
        checked_sum = quadrature.checked_panel_sum

        def recording(f, edges, *args):
            edge_sets.append(edges)
            return checked_sum(f, edges, *args)

        monkeypatch.setattr(entropy_pipeline, "checked_panel_sum", recording)
        params = PhysicalParams(mass=a / 0.1, epsilon=0.1, lam=1.0)
        subtraction_trace(params, K1)
        (edges,) = edge_sets
        assert np.all(np.diff(edges) > 0)
        for per in (16, 32):
            x, w = quadrature.panel_nodes(edges, per)
            assert x.size == w.size == per * (edges.size - 1)
            assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 20.0])
    def test_a_tail_from_below_x_star_completes_the_integral(self, kappa):
        # at a = 0.3, x* = 0.625 lies above x_lo = 0.3, so the tail's panels,
        # doubling from width 1 at x_lo, are still graded toward x*; the head
        # from 0 to x_lo in 30 digits
        a, x_lo = 0.3, 0.3
        with mpmath.workdps(30):
            def integrand(x):
                r = mpmath.sqrt(x * x + mpmath.mpf(a) ** 2)
                p, q = mpmath.exp(-r), -mpmath.expm1(-r)
                if kappa == 1.0:
                    return -p * mpmath.log(p) - q * mpmath.log(q)
                return mpmath.log(p**kappa + q**kappa) / (1 - kappa)

            head = float(mpmath.quad(integrand, [0, x_lo]))
        order = RenyiOrder(kappa)
        tail = entropy_pipeline._eta_integral(order, a, x_lo)
        assert head + tail == pytest.approx(entropy_pipeline._eta_integral(order, a), rel=1e-13)

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


class TestLadder:
    def test_every_rung_doubles_the_one_before(self):
        for cap in range(64, 8193):
            sizes = entropy_pipeline._ladder_sizes(entropy_pipeline.DEFAULT_N_START, cap)
            assert sizes[-1] == cap and len(sizes) >= 2, cap
            assert all(after in (2 * before, 2 * before + 1)
                       for before, after in zip(sizes, sizes[1:])), (cap, sizes)
            # the smallest rung is the smallest halving of at least 128, or
            # half the cap below 256
            smallest = (cap // 2, cap // 2 + 1) if cap < 256 else (128, 256)
            assert smallest[0] <= sizes[0] < smallest[1], (cap, sizes)
        # a cap of 128 * 2^k doubles from 128, as the default cap does
        for k in range(1, 7):
            assert entropy_pipeline._ladder_sizes(128, 128 * 2**k) == [
                128 * 2**i for i in range(k + 1)]

    def test_a_cap_just_past_a_power_of_two_compares_n_with_2n(self):
        # the entropy moves by more than 0.5% from n = 128 to 256, so the
        # ladder capped at 257 must not be confirmed by a rung at 256
        params = PhysicalParams(mass=0.0, epsilon=0.01, lam=1.0)
        for cap in (256, 257):
            result = entanglement_entropy(params, K1, n=cap)
            assert (result.grid_size, result.converged) == (cap, False)

    def test_a_cap_below_128_can_converge(self):
        # n = 50 and n = 100 agree far within 0.5% at eps = 0.1
        result = entanglement_entropy(PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0), K1,
                                      n=100)
        assert (result.grid_size, result.converged) == (100, True)

    # m = 0, eps = 0.0035 on fixed Gauss-Legendre grids. kappa = 1: 2.1163822199
    # at N = 2048, 4096 and 8192, moving 3e-10 between them. kappa = 2:
    # 1.6935230239 at N = 4096, 6144 and 8192, moving 9e-14. kappa = 1/2:
    # 2.7591828, 2.7591938 and 2.7592039 at the same N, drifting 1e-5 a step
    # with the floor bound B (3.5e-4 at N = 4096, 4.9e-4 at 8192)
    @pytest.mark.parametrize("kappa, reference", [(1.0, 2.1163822199), (2.0, 1.6935230239),
                                                  (0.5, 2.7592039)])
    def test_converged_value_matches_a_high_n_reference(self, kappa, reference):
        result = entanglement_entropy(PhysicalParams(mass=0.0, epsilon=0.0035, lam=1.0),
                                      RenyiOrder(kappa), n=4096)
        assert result.converged
        assert abs(result.entropy - reference) <= entropy_pipeline.DEFAULT_REL_CHANGE * reference


class TestFloorBound:
    """B_N, the bulk mass of the modes below the rounding band 2N u."""

    @pytest.mark.parametrize("mass, eps, kappa, n", [(0.0, 0.01, 0.3, 2048),
                                                     (20.0, 0.5, 0.5, 1024)])
    def test_matches_an_independent_quadrature(self, mass, eps, kappa, n):
        # (1/(pi eps)) int eta(exp(-hypot(x, a))) dx from x_d to infinity in
        # 30 digits; a = eps m = 10 sits inside ln(1/delta) = 36.0
        with mpmath.workdps(30):
            a, k = mpmath.mpf(mass) * mpmath.mpf(eps), mpmath.mpf(kappa)
            x_d = mpmath.sqrt(mpmath.log(mpmath.mpf(2) ** 53 / (2 * n)) ** 2 - a * a)

            def integrand(x):
                r = mpmath.sqrt(x * x + a * a)
                return mpmath.log(mpmath.exp(-k * r) + (-mpmath.expm1(-r)) ** k) / (1 - k)

            oracle = float(mpmath.quad(integrand, [x_d, x_d + 8, x_d + 64, mpmath.inf])
                           / (mpmath.pi * eps))
        params = PhysicalParams(mass=mass, epsilon=eps, lam=1.0)
        bound = entropy_pipeline._floor_bound(params, RenyiOrder(kappa), n)
        assert bound == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("kappa", [0.5, 0.3])
    def test_is_the_bulk_term_where_the_rounding_band_covers_every_mode(self, kappa):
        # eps m = 40 lies past ln(1/delta) = 31.9 at N = 64, so x_d = 0 and
        # the tail is the whole integral, by the same quadrature to the bit
        params = PhysicalParams(mass=40.0, epsilon=1.0, lam=1.0)
        order = RenyiOrder(kappa)
        assert entropy_pipeline._floor_bound(params, order, 64) == subtraction_trace(params, order)

    def test_grows_with_n(self):
        params = PhysicalParams(mass=0.0, epsilon=0.01, lam=1.0)
        bounds = [entropy_pipeline._floor_bound(params, RenyiOrder(0.3), n)
                  for n in (128, 256, 512, 1024, 2048, 4096)]
        assert all(b < c for b, c in zip(bounds, bounds[1:]))

    def test_leaves_the_acceptance_orders_far_inside_their_tolerance(self):
        # kappa = 1/2 at eps = 0.002 and the 4096 cap, the smallest order
        # and epsilon the acceptance sweeps and benchmarks reach, against a
        # tolerance of about 0.0147
        params = PhysicalParams(mass=0.0, epsilon=0.002, lam=1.0)
        assert entropy_pipeline._floor_bound(params, RenyiOrder(0.5), 4096) < 1e-3

    def test_a_sweep_point_below_the_floor_fails(self):
        point = asymptotics._sweep_point(RenyiOrder(0.3), 2048, GridRule.GAUSS_LEGENDRE,
                                         PhysicalParams(mass=0.0, epsilon=0.01, lam=1.0))
        assert np.isnan(point.entropy) and not point.converged and point.grid_size == 2048
        assert point.reason.startswith("n = 2048: its floor bound B = 0.0301")

    def test_an_unconverged_rung_at_the_cap_is_checked_too(self):
        # kappa = 0.1 never converges up to 2048; S = 30.65 there is noise
        params = PhysicalParams(mass=0.0, epsilon=0.01, lam=1.0)
        with pytest.raises(ConvergenceError, match="n = 2048: its floor bound B = 20.3"):
            entanglement_entropy(params, RenyiOrder(0.1), n=2048)

    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_is_never_evaluated_from_order_1_up(self, monkeypatch, kappa):
        monkeypatch.setattr(entropy_pipeline, "_floor_bound", None)  # never called
        params = PhysicalParams(mass=0.0, epsilon=0.01, lam=1.0)
        assert entanglement_entropy(params, RenyiOrder(kappa), n=256).grid_size == 256
