import numpy as np
import pytest

from diamond_entropy import (
    BoxSpec,
    ConvergenceError,
    PhysicalParams,
    RenyiOrder,
    asymptotics,
    log_growth_diagnostic,
    offdiagonal_diagnostic,
    sweep,
)
from proof_probes import mass_independence_check

K1 = RenyiOrder(1.0)
COARSE_GRID = np.geomspace(0.5, 0.01, 6)


def base_params(mass=0.0, lam=1.0):
    return PhysicalParams(mass=mass, epsilon=0.1, lam=lam)


class TestSweepValidation:
    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            sweep(base_params(), K1, [0.1])

    def test_narrow_range_rejected(self):
        with pytest.raises(ValueError):
            sweep(base_params(), K1, np.geomspace(0.1, 0.05, 6))

    def test_non_log_spacing_rejected(self):
        with pytest.raises(ValueError):
            sweep(base_params(), K1, [0.5, 0.3, 0.1, 0.05, 0.01, 0.005])

    def test_too_few_converged_signals(self):
        with pytest.raises(ConvergenceError):
            sweep(base_params(), K1, np.geomspace(0.05, 0.001, 6), n_max=64)


@pytest.fixture(scope="module")
def coarse_sweep():
    return sweep(base_params(), K1, COARSE_GRID)


class TestSweep:
    def test_slope_near_theory(self, coarse_sweep):
        # coarse grid, still within 10% of 1/3
        assert coarse_sweep.theory_slope == pytest.approx(1 / 3, rel=1e-12)
        assert coarse_sweep.rel_error < 0.10
        assert 0.27 < coarse_sweep.slope < 0.34

    def test_fit_quality(self, coarse_sweep):
        assert coarse_sweep.r_squared >= 0.98

    def test_points_sorted_decreasing(self, coarse_sweep):
        eps = [p.epsilon for p in coarse_sweep.points]
        assert eps == sorted(eps, reverse=True)

    def test_slope_stable_without_largest_eps(self, coarse_sweep):
        pts = coarse_sweep.converged_points()[1:]
        x = np.array([np.log(1 / p.epsilon) for p in pts])
        y = np.array([p.entropy for p in pts])
        slope = np.polyfit(x, y, 1)[0]
        assert abs(slope - coarse_sweep.slope) / coarse_sweep.slope < 0.05

    def test_deterministic_repetition(self, coarse_sweep):
        again = sweep(base_params(), K1, COARSE_GRID)
        assert again.slope == coarse_sweep.slope
        assert [p.entropy for p in again.points] == [p.entropy for p in coarse_sweep.points]


class TestSweepWorkers:
    @pytest.fixture
    def recorded(self, monkeypatch):
        """Pool sizes and preflight worker counts of the sweeps run in a test."""
        pool, preflight = [], []
        check = asymptotics.check_spectrum_memory

        class RecordingPool:
            """Stands in for ProcessPoolExecutor and maps in-process."""

            def __init__(self, max_workers):
                pool.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        def recording_check(n, processes=1):
            preflight.append(processes)
            check(n, processes)

        monkeypatch.setattr(asymptotics, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(asymptotics, "check_spectrum_memory", recording_check)
        return pool, preflight

    def test_pool_never_exceeds_points(self, recorded, coarse_sweep):
        result = sweep(base_params(), K1, COARSE_GRID, jobs=64)
        assert recorded == ([COARSE_GRID.size], [COARSE_GRID.size])
        assert result.points == coarse_sweep.points

    def test_one_job_starts_no_pool(self, recorded, coarse_sweep):
        sweep(base_params(), K1, COARSE_GRID, jobs=1)
        assert recorded == ([], [1])


class TestMassIndependence:
    def test_requires_zero_mass(self):
        with pytest.raises(ValueError):
            mass_independence_check(1.0, K1, [0.5, 1.0], COARSE_GRID)

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_invalid_mass_rejected_before_any_sweep(self, monkeypatch, bad):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep started")

        monkeypatch.setattr("proof_probes.sweep", no_sweep)
        with pytest.raises(ValueError, match="mass"):
            mass_independence_check(1.0, K1, [0.0, bad], COARSE_GRID)

    def test_slopes_agree_and_sharpen(self):
        report = mass_independence_check(1.0, K1, [0.0, 1.0], COARSE_GRID)
        assert abs(report.sweeps[1.0].slope - report.sweeps[0.0].slope) <= 0.05
        assert report.slope_gap_full <= report.slope_gap_coarse + 0.03

    def test_massless_entry_reproduces_plain_sweep(self):
        report = mass_independence_check(1.0, K1, [0.0, 1.0], COARSE_GRID)
        plain = sweep(base_params(), K1, COARSE_GRID)
        assert report.sweeps[0.0].slope == plain.slope
        assert [p.entropy for p in report.sweeps[0.0].points] == [
            p.entropy for p in plain.points
        ]


class TestOffdiagonalDiagnostic:
    def test_massless_input_gives_zero_ratios(self):
        res = offdiagonal_diagnostic(1.0, K1, 0.0, [10.0, 31.6, 100.0], n=256)
        assert np.all(res.offdiag_ratios == 0.0)
        assert np.all(res.sup_deviations == 0.0)

    def test_ratios_decrease_for_massive_input(self):
        res = offdiagonal_diagnostic(1.0, K1, 1.0, [10.0, 31.6, 100.0], n=512)
        assert np.all(np.diff(res.offdiag_ratios) < 0)

    def test_sup_deviation_bound(self):
        res = offdiagonal_diagnostic(1.0, K1, 1.0, [np.e**4, np.e**7, np.e**10], n=256)
        bound = 5.0 * 1.0 / np.log(res.alpha_grid)
        assert np.all(res.sup_deviations <= bound)
        assert np.all(np.diff(res.sup_deviations) < 0)

    def test_alpha_grid_validation(self):
        with pytest.raises(ValueError):
            offdiagonal_diagnostic(1.0, K1, 1.0, [100.0, 10.0])
        with pytest.raises(ValueError):
            offdiagonal_diagnostic(1.0, K1, 1.0, [2.0, 20.0, 200.0])
        with pytest.raises(ValueError):
            offdiagonal_diagnostic(1.0, K1, -1.0, [10.0, 100.0])


class TestLogGrowthDiagnostic:
    def test_q_validation(self):
        with pytest.raises(ValueError):
            log_growth_diagnostic(0.3, [1e2, 1e3, 1e4])
        with pytest.raises(ValueError):
            log_growth_diagnostic(0.2, [1e2, 1e3, 1e4])

    def test_span_validation(self):
        with pytest.raises(ValueError):
            log_growth_diagnostic(0.5, [1e2, 2e2, 5e2])

    def test_ratio_bounded_across_grid(self):
        res = log_growth_diagnostic(0.5, [1e2, 1e3, 1e4])
        ratios = res.logq_norms / np.log(res.alpha_grid)
        assert ratios.max() <= 3.0 * ratios.min()

    def test_l0_insensitivity(self):
        alphas = [1e2, 1e3, 1e4]
        res_a = log_growth_diagnostic(0.5, alphas, BoxSpec(l0=1.0))
        res_b = log_growth_diagnostic(0.5, alphas, BoxSpec(l0=0.5))
        ratios_a = res_a.logq_norms / np.log(alphas)
        spread = ratios_a.max() - ratios_a.min()
        gap = np.abs(res_a.logq_norms - res_b.logq_norms).max()
        assert gap < spread + 0.5

    def test_rounding_floor_left_out(self, monkeypatch):
        # one ulp up or down on every entry, in a checkerboard
        alphas = [1e2, 1e3, 1e4]
        exact = log_growth_diagnostic(0.25, alphas).logq_norms
        assemble = asymptotics.assemble_offdiagonal_truncation

        def perturbed(*args):
            block = assemble(*args)
            signs = np.where(np.add.outer(*map(np.arange, block.shape)) % 2, 1.0, -1.0)
            return block + signs * np.spacing(block)

        monkeypatch.setattr(asymptotics, "assemble_offdiagonal_truncation", perturbed)
        moved = log_growth_diagnostic(0.25, alphas).logq_norms
        assert np.abs(moved / exact - 1.0).max() < 1e-9

    def test_other_q_orders_run(self):
        for q in (1.0 / 3.0, 0.25):
            res = log_growth_diagnostic(q, [1e2, 1e3, 1e4], BoxSpec(n=768))
            assert np.all(np.isfinite(res.logq_norms))
