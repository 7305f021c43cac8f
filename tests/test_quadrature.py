import mpmath as mp
import numpy as np
import pytest

from diamond_entropy import ConvergenceError, Grid, GridRule, build_grid, quadrature
from oracle import exact_legendre_node


class TestBuildGrid:
    def test_two_point_gauss(self):
        grid = build_grid(2, 1.0, GridRule.GAUSS_LEGENDRE)
        expected = [(1 - 1 / np.sqrt(3)) / 2, (1 + 1 / np.sqrt(3)) / 2]
        np.testing.assert_allclose(grid.nodes, expected, rtol=1e-14)
        np.testing.assert_allclose(grid.weights, [0.5, 0.5], rtol=1e-14)

    def test_midpoint_rule(self):
        grid = build_grid(4, 2.0, GridRule.MIDPOINT)
        np.testing.assert_allclose(grid.nodes, [0.25, 0.75, 1.25, 1.75])
        np.testing.assert_allclose(grid.weights, [0.5] * 4)

    def test_monotone_positive(self):
        grid = build_grid(50, 1.0)
        assert np.all(np.diff(grid.nodes) > 0)
        assert np.all(grid.weights > 0)
        assert grid.weights.sum() == pytest.approx(1.0, abs=1e-13)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            build_grid(1, 1.0)

    def test_legendre_rule_computed_once_per_size(self, monkeypatch):
        calls = []
        for construction in ("_newton_half", "_bogaert_half"):
            def counting(size, build_half=getattr(quadrature, construction), name=construction):
                calls.append((name, size))
                return build_half(size)

            monkeypatch.setattr(quadrature, construction, counting)
        quadrature._legendre_rule.cache_clear()
        for n, construction in ((37, "_newton_half"), (128, "_bogaert_half")):
            calls.clear()
            first = build_grid(n, 2.0)
            second = build_grid(n, 3.0)
            assert calls == [(construction, n)]
            unit_nodes, unit_weights = quadrature._legendre_rule(n)
            assert calls == [(construction, n)]
            assert np.array_equal(first.nodes, 0.5 * 2.0 * (unit_nodes + 1.0))
            assert np.array_equal(second.weights, 0.5 * 3.0 * unit_weights)
            assert not unit_nodes.flags.writeable and not unit_weights.flags.writeable

    # The reference is the exact rule, not leggauss, whose endpoint weights
    # are off by 1.2e-9 relative at n = 1024.
    @pytest.mark.parametrize("n", [2, 3, 37, 60, 100, 101, 128, 512, 1024, 2048, 8192])
    def test_legendre_rule_matches_leggauss(self, n):
        x, w = quadrature._legendre_rule(n)
        for i in sorted({0, n // 4, n // 2, n - 1}):  # both ends, a quarter in, the middle
            ref_x, ref_w = exact_legendre_node(n, x[i])
            assert abs(x[i] - float(ref_x)) <= 2.0 * np.finfo(float).eps
            assert abs(float(w[i] / ref_w) - 1.0) <= 2e-13
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        for k in range(min(20, n - 1) + 1):  # exact up to degree 2n - 1
            assert abs(np.sum(w * x ** (2 * k)) - 2.0 / (2 * k + 1)) <= 1e-12

    def test_bessel_data_matches_scipy(self):
        # FastGL's J0 zeros and J1(j_{0,k})^2 against scipy, a test-only
        # reference, up to k = 5000: the tables below k = 21 or 22, the
        # asymptotic series above
        special = pytest.importorskip("scipy.special")
        zeros, j1_squared = quadrature._bessel_j0_data(5000)
        ref = special.jn_zeros(0, 5000)
        assert np.abs(zeros / ref - 1.0).max() <= 2.0 * np.finfo(float).eps
        assert np.abs(j1_squared / special.j1(ref) ** 2 - 1.0).max() <= 1.5e-15

    def test_bessel_data_matches_mpmath(self):
        zeros, j1_squared = quadrature._bessel_j0_data(5000)
        with mp.workdps(30):
            for k in (1, 2, 20, 21, 22, 23, 50, 101, 1000, 4999, 5000):
                zero = mp.besseljzero(0, k)
                assert abs(float(zeros[k - 1] / zero) - 1.0) <= 2.0 * np.finfo(float).eps
                ref = mp.besselj(1, zero) ** 2
                assert abs(float(j1_squared[k - 1] / ref) - 1.0) <= 2.0 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [101, 102, 255, 256, 1023, 1024, 2048, 4097, 8191, 8192])
    def test_rules_match_rules_from_scipy_bessel_data(self, monkeypatch, n):
        special = pytest.importorskip("scipy.special")

        def scipy_data(count):
            zeros = special.jn_zeros(0, count)
            return zeros, special.j1(zeros) ** 2

        # over every n in [101, 8192] the two rules differ by at most 6.7e-16
        # in a node and 2.0e-15 relative in a weight
        x, w = quadrature._legendre_rule.__wrapped__(n)
        monkeypatch.setattr(quadrature, "_bessel_j0_data", scipy_data)
        ref_x, ref_w = quadrature._legendre_rule.__wrapped__(n)
        assert np.abs(x - ref_x).max() <= 4.0 * np.finfo(float).eps
        assert np.abs(w / ref_w - 1.0).max() <= 2.5e-15

    def test_mirrored_rule_needs_no_symmetrization(self):
        # The mirrored halves are symmetric already: averaging x with -x[::-1]
        # and w with w[::-1] changes no bit but the odd-n centre node (up to
        # ~3e-16 from Bogaert's formulas), which the rule sets to 0 directly.
        for n in [*range(2, 400), 511, 512, 513, 1000, 1024, 2047, 2048, 4096, 8191, 8192]:
            half = (quadrature._newton_half if n <= quadrature._NEWTON_MAX_NODES
                    else quadrature._bogaert_half)
            half_x, half_w = half(n)
            h = half_x.size
            x, w = np.empty(n), np.empty(n)
            x[:h], x[n - h:] = -half_x, half_x[::-1]
            w[:h], w[n - h:] = half_w, half_w[::-1]
            w = (w + w[::-1]) / 2.0
            x = (x - x[::-1]) / 2.0
            w *= 2.0 / w.sum()
            rule_x, rule_w = quadrature._legendre_rule.__wrapped__(n)
            assert np.array_equal(rule_x, x) and np.array_equal(rule_w, w), n

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(nodes=[0.5, 0.2], weights=[0.5, 0.5], rule=GridRule.MIDPOINT, lam=1.0)
        with pytest.raises(ValueError):
            Grid(nodes=[0.2, 0.5], weights=[0.5, -0.5], rule=GridRule.MIDPOINT, lam=1.0)
        with pytest.raises(ValueError):
            Grid(nodes=[0.2, 0.5], weights=[0.9, 0.9], rule=GridRule.MIDPOINT, lam=1.0)
        with pytest.raises(ValueError, match="mirror-symmetric"):
            Grid(nodes=[0.1, 0.2, 0.3, 0.9], weights=[0.15, 0.1, 0.35, 0.4],
                 rule=GridRule.GAUSS_LEGENDRE, lam=1.0)


class TestCheckedPanelSum:
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_integrand_raises(self, bad):
        # nan - nan and inf - inf compare false against any bound: the check fails closed
        with pytest.raises(ConvergenceError, match="test sum did not reach"):
            quadrature.checked_panel_sum(lambda x: np.full_like(x, bad),
                                         np.array([0.0, 1.0]), 1e-8, 0.0, "test sum")
