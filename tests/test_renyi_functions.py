import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamond_entropy import (
    ConvergenceError,
    RenyiOrder,
    entropy_integral,
    eta,
    theoretical_slope,
)
from proof_probes import eta_derivatives, probe_condition_f

LN2 = np.log(2.0)


class TestRenyiOrder:
    def test_validation(self):
        with pytest.raises(ValueError):
            RenyiOrder(0.0)
        with pytest.raises(ValueError):
            RenyiOrder(-2.0)
        with pytest.raises(ValueError):
            RenyiOrder(np.nan)

    def test_von_neumann_detection(self):
        assert RenyiOrder(1.0).is_von_neumann
        assert RenyiOrder(1.0 + 1e-13).is_von_neumann
        assert not RenyiOrder(1.0 + 1e-11).is_von_neumann


class TestEta:
    def test_von_neumann_symmetric_point(self):
        assert eta(RenyiOrder(1.0), 0.5) == pytest.approx(LN2, abs=1e-15)

    def test_boundary_values_vanish(self):
        order = RenyiOrder(2.0)
        assert eta(order, 0.0) == 0.0
        assert eta(order, 1.0) == 0.0
        assert eta(order, -0.3) == 0.0
        assert eta(order, 1.7) == 0.0

    def test_kappa_two_symmetric_point(self):
        # (1/(1-2)) ln(1/4 + 1/4) = -ln(1/2) = ln 2
        assert eta(RenyiOrder(2.0), 0.5) == pytest.approx(LN2, rel=1e-15)

    def test_array_evaluation_matches_scalar(self):
        order = RenyiOrder(0.7)
        ts = np.array([-1.0, 0.0, 1e-12, 0.25, 0.5, 0.75, 1.0 - 1e-12, 1.0, 2.0])
        arr = eta(order, ts)
        for t, v in zip(ts, arr):
            assert eta(order, float(t)) == v

    @settings(max_examples=300, deadline=None)
    @given(
        kappa=st.floats(0.05, 20.0),
        t=st.floats(-1.0, 2.0, allow_subnormal=False),
    )
    def test_nonnegative_everywhere(self, kappa, t):
        assert eta(RenyiOrder(kappa), t) >= 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        kappa=st.floats(0.05, 20.0),
        # rounding 1 - t perturbs the reflected point by ulp(1)/t relative,
        # so stay away from the endpoints and match that conditioning
        t=st.floats(1e-6, 1.0 - 1e-6),
    )
    def test_symmetric_about_half(self, kappa, t):
        order = RenyiOrder(kappa)
        v = eta(order, t)
        assert eta(order, 1.0 - t) == pytest.approx(v, rel=1e-9, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(kappa=st.floats(0.05, 20.0), t=st.floats(1e-9, 1.0 - 1e-9))
    def test_maximum_at_half(self, kappa, t):
        order = RenyiOrder(kappa)
        assert eta(order, 0.5) >= eta(order, t)

    @pytest.mark.parametrize("t", [0.1, 0.3, 0.5, 0.9, 0.99])
    def test_continuity_in_kappa_at_one(self, t):
        base = eta(RenyiOrder(1.0), t)
        for h in (1e-6, -1e-6):
            assert abs(eta(RenyiOrder(1.0 + h), t) - base) < 1e-4

    def test_pointwise_monotone_in_kappa(self):
        ts = np.linspace(1e-4, 1 - 1e-4, 301)
        kappas = [0.5, 1.0, 2.0, 3.0]
        values = [eta(RenyiOrder(k), ts) for k in kappas]
        for lo, hi in zip(values, values[1:]):
            assert np.all(lo >= hi - 1e-14)

    @pytest.mark.parametrize("kappa", [0.01, 0.05, 0.5, 2.0, 20.0, 50.0, 100.0, 1e4,
                                       1.0 - 1e-9, 1.0 + 1e-11, 1.0001, 1.001])
    def test_matches_90_digit_oracle(self, kappa):
        # t^kappa + (1-t)^kappa falls to 2^(1-kappa) near t = 1/2 at large
        # kappa; no step of eta may cancel there, next to kappa = 1, or
        # underflow near t = 0 (abs=0: eta falls below pytest's default 1e-12
        # absolute tolerance toward t = 1e-30)
        ts = np.geomspace(1e-30, 0.5, 120)
        values = eta(RenyiOrder(kappa), ts)
        with mpmath.workdps(90):
            k = mpmath.mpf(kappa)
            for t, value in zip(ts, values):
                t = mpmath.mpf(float(t))
                oracle = float(mpmath.log(t**k + (1 - t) ** k) / (1 - k))
                assert value == pytest.approx(oracle, rel=1e-14, abs=0.0)

    def test_endpoint_stability_no_nan(self):
        order = RenyiOrder(1.0)
        t = np.nextafter(1.0, 0.0)
        assert np.isfinite(eta(order, t))
        assert eta(order, 1e-305) == 0.0


class TestDerivatives:
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 3.7])
    @pytest.mark.parametrize("t", [0.08, 0.31, 0.5, 0.77])
    def test_against_central_differences(self, kappa, t):
        order = RenyiOrder(kappa)
        _, d1, d2 = eta_derivatives(order, t)
        h = 1e-6
        fd1 = (eta(order, t + h) - eta(order, t - h)) / (2 * h)
        fd2 = (eta(order, t + h) - 2 * eta(order, t) + eta(order, t - h)) / h**2
        assert d1 == pytest.approx(fd1, rel=1e-7, abs=1e-7)
        assert d2 == pytest.approx(fd2, rel=1e-3, abs=1e-3)

    @pytest.mark.parametrize("kappa", [1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-11, 1.0001])
    def test_near_one_matches_50_digit_oracle(self, kappa):
        # the closed forms divide by 1 - kappa; next to kappa = 1 nothing may cancel
        ts = [1e-6, 0.01, 0.3, 0.7, 0.999]
        _, d1, d2 = eta_derivatives(RenyiOrder(kappa), ts)
        with mpmath.workdps(50):
            k = mpmath.mpf(kappa)
            for t, got1, got2 in zip(ts, d1, d2):
                t = mpmath.mpf(t)
                u = 1 - t
                g = t**k + u**k
                gp = k * (t ** (k - 1) - u ** (k - 1))
                gpp = k * (k - 1) * (t ** (k - 2) + u ** (k - 2))
                assert got1 == pytest.approx(float(gp / ((1 - k) * g)), rel=1e-12)
                assert got2 == pytest.approx(float((gpp * g - gp * gp) / ((1 - k) * g * g)), rel=1e-12)

    @pytest.mark.parametrize("kappa", [2.0, 2.5, 3.7, 20.0])
    def test_second_derivative_near_endpoints_matches_60_digit_oracle(self, kappa):
        # g'' g - g'^2 once subtracted two numbers of size ~kappa^2 to leave
        # ~t near t = 0 and t = 1 (2.2e-5 relative at kappa = 2, t = 1e-12)
        ts = [1e-12, 1e-9, 1e-6, 1.0 - 1e-9]
        _, _, d2 = eta_derivatives(RenyiOrder(kappa), ts)
        with mpmath.workdps(60):
            k = mpmath.mpf(kappa)
            for t, got in zip(ts, d2):
                t = mpmath.mpf(t)
                u = 1 - t
                g = t**k + u**k
                gp = k * (t ** (k - 1) - u ** (k - 1))
                gpp = k * (k - 1) * (t ** (k - 2) + u ** (k - 2))
                expected = float((gpp * g - gp * gp) / ((1 - k) * g * g))
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_rejects_endpoint_input(self):
        with pytest.raises(ValueError):
            eta_derivatives(RenyiOrder(1.0), 0.0)


class TestTheoreticalSlope:
    def test_known_values(self):
        assert theoretical_slope(RenyiOrder(1.0)) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert theoretical_slope(RenyiOrder(2.0)) == pytest.approx(0.25, rel=1e-15)

    def test_large_kappa_limit(self):
        assert theoretical_slope(RenyiOrder(1e12)) == pytest.approx(1.0 / 6.0, rel=1e-10)


class TestEntropyIntegral:
    @pytest.mark.parametrize(
        "kappa", [1e-3, 0.01, 0.05, 0.5, 1.0, 2.0, 7.0, 20.0, 30.0, 100.0, 1e4]
    )
    def test_matches_closed_form(self, kappa):
        order = RenyiOrder(kappa)
        value = entropy_integral(order)
        assert value == pytest.approx(theoretical_slope(order), rel=1e-13)


class TestProbe:
    def test_exponent_kappa_half(self):
        p = probe_condition_f(RenyiOrder(0.5), 0.0, samples=200)
        assert p.gamma == pytest.approx(0.5, abs=0.05)

    def test_exponent_kappa_two(self):
        p = probe_condition_f(RenyiOrder(2.0), 0.0, samples=200)
        assert p.gamma == pytest.approx(1.0, abs=0.05)

    def test_log_correction_at_kappa_one(self):
        p = probe_condition_f(RenyiOrder(1.0), 0.0, samples=200)
        assert p.gamma < 1.0

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 2.0, 5.0])
    def test_bounded_by_min_one_kappa(self, kappa):
        p = probe_condition_f(RenyiOrder(kappa), 0.0, samples=150)
        assert p.gamma <= min(1.0, kappa) + 0.05

    def test_both_endpoints_agree(self):
        p0 = probe_condition_f(RenyiOrder(0.5), 0.0, samples=150)
        p1 = probe_condition_f(RenyiOrder(0.5), 1.0, samples=150)
        assert p0.gamma == pytest.approx(p1.gamma, abs=1e-10)
        assert p1.t0 == 1.0

    def test_seminorm_positive(self):
        p = probe_condition_f(RenyiOrder(2.0), 0.0, samples=150)
        assert p.seminorm_bound > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            probe_condition_f(RenyiOrder(1.0), 0.0, samples=50)
        with pytest.raises(ValueError):
            probe_condition_f(RenyiOrder(1.0), 0.5)
