import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from diamond_entropy import (
    ConvergenceError,
    EntropyResult,
    PhysicalParams,
    RenyiOrder,
    asymptotics,
    cli,
    discretization,
    log_growth_diagnostic,
    offdiagonal_diagnostic,
    sweep,
)
from oracle import kernel_quadrature
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
        with pytest.raises(ConvergenceError) as refused:
            sweep(base_params(), K1, np.geomspace(0.05, 0.001, 6), n_max=64)
        # the refusal holds the points it counted, each saying why it failed
        points = refused.value.points
        assert [p.params.epsilon for p in points] == list(np.geomspace(0.05, 0.001, 6))
        assert not any(p.converged or p.reason == "" for p in points)


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
        eps = [p.params.epsilon for p in coarse_sweep.points]
        assert eps == sorted(eps, reverse=True)

    def test_slope_stable_without_largest_eps(self, coarse_sweep):
        pts = coarse_sweep.converged_points()[1:]
        x = np.array([np.log(1 / p.params.epsilon) for p in pts])
        y = np.array([p.entropy for p in pts])
        slope = np.polyfit(x, y, 1)[0]
        assert abs(slope - coarse_sweep.slope) / coarse_sweep.slope < 0.05

    def test_deterministic_repetition(self, coarse_sweep):
        again = sweep(base_params(), K1, COARSE_GRID)
        assert again.slope == coarse_sweep.slope
        assert [p.entropy for p in again.points] == [p.entropy for p in coarse_sweep.points]


class TestSweepWorkers:
    @pytest.fixture
    def handed(self):
        """The epsilons of the points handed to the pools of a test, in order."""
        return []

    @pytest.fixture
    def recorded(self, monkeypatch, handed):
        """Pools (size, initializer, its arguments) and preflight grid sizes
        of the sweeps run in a test."""
        pool, preflight = [], []
        check = asymptotics.check_spectrum_memory

        class RecordingPool:
            """Stands in for ProcessPoolExecutor, records the order of the
            points it is handed and maps in-process."""

            def __init__(self, max_workers, initializer=None, initargs=()):
                pool.append((max_workers, initializer, initargs))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                handed.extend(params.epsilon for params in items)
                return map(fn, items)

        def recording_check(n):
            preflight.append(n)
            return check(n)

        monkeypatch.setattr(asymptotics, "_process_pool", RecordingPool)
        monkeypatch.setattr(asymptotics, "check_spectrum_memory", recording_check)
        return pool, preflight

    def test_pool_never_exceeds_points(self, recorded, handed, coarse_sweep):
        result = sweep(base_params(), K1, COARSE_GRID, jobs=64)
        # each worker learns how many processes share the CPUs
        workers = COARSE_GRID.size
        assert recorded == ([(workers, discretization.share_cpus, (workers,))],
                            [asymptotics.DEFAULT_N_MAX])
        assert result.points == coarse_sweep.points
        # the costliest spectra start first, and the points come back in
        # decreasing-epsilon order
        assert handed == sorted(COARSE_GRID)

    def test_one_job_starts_no_pool(self, recorded, coarse_sweep):
        sweep(base_params(), K1, COARSE_GRID, jobs=1)
        assert recorded == ([], [asymptotics.DEFAULT_N_MAX])

    def test_cli_without_jobs_starts_no_pool(self, recorded, capsys):
        code = cli.main(["sweep", "--kappa", "1", "--eps-grid", "0.5:0.01:6log",
                         "--grid-size", "256"])
        assert code == 0
        assert recorded == ([], [256])
        assert json.loads(capsys.readouterr().out)["config"]["jobs"] == 1

    def test_cli_pool_capped_by_memory(self, recorded, monkeypatch, capsys):
        def point_on_theory_line(order, n_max, rule, params):
            return EntropyResult(params=params, truncated_trace=0.0, subtraction_trace=0.0,
                                 entropy=np.log(1.0 / params.epsilon) / 3.0, clamp_count=0,
                                 grid_size=128, converged=True)

        # room for three spectra at the cap: four jobs run as a pool of three
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: 3 * 8 * 4096 * 4097)
        monkeypatch.setattr(asymptotics, "_sweep_point", point_on_theory_line)
        code = cli.main(["sweep", "--kappa", "1", "--eps-grid", "0.1:0.002:8log",
                         "--grid-size", "4096", "--jobs", "4"])
        assert code == 0
        assert recorded == ([(3, discretization.share_cpus, (3,))], [4096])
        assert json.loads(capsys.readouterr().out)["config"]["jobs"] == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_serial_points_get_the_next_point_as_partner(self, recorded, monkeypatch, jobs):
        handed = []

        def on_theory_line(params, order, n, *, rule, partner=None):
            handed.append((params.epsilon, partner and partner.epsilon))
            return EntropyResult(params=params, truncated_trace=0.0, subtraction_trace=0.0,
                                 entropy=np.log(1.0 / params.epsilon) / 3.0, clamp_count=0,
                                 grid_size=128, converged=True)

        monkeypatch.setattr(asymptotics, "entanglement_entropy", on_theory_line)
        sweep(base_params(), K1, COARSE_GRID, jobs=jobs)
        eps = list(COARSE_GRID)
        # the pool is handed the smallest epsilon first
        expected = (list(zip(eps, [*eps[1:], None])) if jobs == 1
                    else [(e, None) for e in eps[::-1]])
        assert handed == expected

    def test_massless_sweep_with_one_job_matches_the_pool(self):
        # a point solved as its neighbour's partner comes from the other
        # triangle of the buffer and may differ in the last digits
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        points = []
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "diamond_entropy.cli", "sweep", "--kappa", "1",
                 "--mass", "0", "--eps-grid", "0.1:0.003:6log", "--grid-size", "1024",
                 "--jobs", jobs],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            points.append(json.loads(proc.stdout)["points"])
        serial, pool = points
        assert [(p["n"], p["converged"]) for p in serial] == [
            (p["n"], p["converged"]) for p in pool]
        for a, b in zip(serial, pool):
            assert a["entropy"] == pytest.approx(b["entropy"], rel=1e-12, abs=0.0)

    def test_cli_exits_2_when_no_spectrum_fits(self, recorded, monkeypatch, capsys):
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: 8 * 4096 * 4097 - 1)
        monkeypatch.setattr(asymptotics, "_sweep_point", None)  # never reached
        code = cli.main(["sweep", "--kappa", "1", "--eps-grid", "0.1:0.002:8log",
                         "--grid-size", "4096", "--jobs", "4"])
        assert code == 2
        assert recorded == ([], [4096])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the largest grid-size cap that fits is 4095" in captured.err


class TestSweepPointsAreLadderResults:
    """A sweep point is the ladder's EntropyResult for its params, or, where
    the ladder raised, a NaN result that carries the error's text."""

    # at the cap of 256, 0.00928 and 0.00431 end unconverged and 0.002 fails
    EPS = np.geomspace(2.0, 0.002, 10)

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial-partners", "pool"])
    def test_each_point_is_the_ladders_result(self, jobs):
        # a serial sweep caches its partners' spectra, which the ladder below
        # reads back; the pool's workers solve alone, as the ladder here does
        discretization.clear_spectrum_cache()
        result = sweep(base_params(), K1, self.EPS, n_max=256, jobs=jobs)
        *solved, failed = result.points
        assert [p.params.epsilon for p in result.points] == list(self.EPS)
        for point in solved:
            assert point == asymptotics.entanglement_entropy(point.params, K1, n=256)
        assert [p.converged for p in solved] == [True] * 7 + [False] * 2
        with pytest.raises(ConvergenceError) as refused:
            asymptotics.entanglement_entropy(failed.params, K1, n=256)
        assert failed.reason == str(refused.value)
        assert np.isnan([failed.truncated_trace, failed.subtraction_trace, failed.entropy]).all()
        assert (failed.clamp_count, failed.grid_size, failed.converged) == (0, 256, False)


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

    def test_clamp_distances_flag_an_alpha_the_grid_does_not_resolve(self):
        # alpha = 1e3 needs more than 256 nodes: its spectra reach 1.52
        res = offdiagonal_diagnostic(1.0, K1, 1.0, [100.0, 1000.0], n=256)
        assert res.clamp_distances[0] < discretization.DEFAULT_TOL_DISC
        assert res.clamp_distances[1] == pytest.approx(0.5271, abs=1e-4)

    def test_sup_deviation_bound(self):
        res = offdiagonal_diagnostic(1.0, K1, 1.0, [np.e**4, np.e**7, np.e**10], n=256)
        bound = 5.0 * 1.0 / np.log(res.alpha_grid)
        assert np.all(res.sup_deviations <= bound)
        assert np.all(np.diff(res.sup_deviations) < 0)

    def test_matched_grid_entropy_checks_memory_before_the_buffer(self, monkeypatch):
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: 8 * 1024**2)
        monkeypatch.setattr(discretization, "_zeroed_buffer", None)  # never reached
        params = PhysicalParams(mass=1.0, epsilon=0.0123, lam=1.0)
        with pytest.raises(ValueError, match="the largest grid-size cap that fits is"):
            asymptotics.matched_grid_entropy(params, K1, 2048)

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
        res_a = log_growth_diagnostic(0.5, alphas, l0=1.0)
        res_b = log_growth_diagnostic(0.5, alphas, l0=0.5)
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

    def test_box_tail_checked_once_per_alpha(self, monkeypatch):
        calls = []
        tail_fraction = asymptotics._box_tail_fraction

        def counted(*args):
            calls.append(args)
            return tail_fraction(*args)

        monkeypatch.setattr(asymptotics, "_box_tail_fraction", counted)
        log_growth_diagnostic(0.5, [1e2, 1e3, 1e4])
        assert len(calls) == 3

    def test_one_cross_block_alive_at_a_time(self):
        # the alpha = 1e4 block is assembled after the alpha = 100 one is
        # released, so the run peaks as that larger block does alone
        alphas, n = [1e2, 1e4], 480
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            log_growth_diagnostic(0.5, alphas, n=n)
            both = tracemalloc.get_traced_memory()[1] - base
            alone = []
            for alpha in alphas:
                params = PhysicalParams(mass=1.0, epsilon=1.0 / alpha, lam=1.0)
                nodes = asymptotics.cross_block_nodes(asymptotics.CrossBlockLayout(params, 8.0), n)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                np.linalg.svd(asymptotics.assemble_offdiagonal_truncation(params, nodes),
                              compute_uv=False)
                alone.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert both <= 1.02 * max(alone)

    def test_other_q_orders_run(self):
        for q in (1.0 / 3.0, 0.25):
            res = log_growth_diagnostic(q, [1e2, 1e3, 1e4], n=768)
            assert np.all(np.isfinite(res.logq_norms))


def cross_block(params, box_half_width, n):
    nodes = asymptotics.cross_block_nodes(asymptotics.CrossBlockLayout(params, box_half_width), n)
    return asymptotics.assemble_offdiagonal_truncation(params, nodes)


class TestOffdiagonalTruncation:
    def test_contraction_largest_singular_value(self):
        params = PhysicalParams(mass=0.0, epsilon=1.0, lam=1.0)
        M = cross_block(params, 8.0, 1024)
        s1 = np.linalg.svd(M, compute_uv=False)[0]
        assert 0.0 < s1 < 1.0

    def test_quasi_norm_saturates_along_alpha(self):
        # The q = 1/2 quasi-norm of the cross block tends to a constant: the
        # boundary-localized kernel structure is scale invariant, so the
        # stated upper bound ~ log(alpha) is not attained as a growth rate.
        # Frozen against a brute-force uniform-grid oracle (agrees to 1e-3).
        alphas = np.array([10.0, 100.0, 1000.0, 10000.0])
        norms = []
        for a in alphas:
            params = PhysicalParams(mass=0.0, epsilon=1.0 / a, lam=1.0)
            M = cross_block(params, 8.0, 1024)
            s = np.linalg.svd(M, compute_uv=False)
            norms.append(float(np.sum(np.sqrt(s))))
        norms = np.array(norms)
        assert np.all(np.diff(norms) > 0)          # increasing toward the limit
        assert 1.4 < norms[0] < norms[-1] < 1.9     # bounded, frozen band
        exponent = np.polyfit(np.log(np.log(alphas)), np.log(norms), 1)[0]
        assert 0.0 < exponent < 0.4                 # far from genuine log growth

    def test_box_tail_guard_fires_for_fat_tails(self):
        params = PhysicalParams(mass=0.0, epsilon=1.0, lam=1.0)
        assert asymptotics.min_box_half_width(params, 8.0) > 8.0

    def test_default_tolerance_accepts_massive_symbols(self):
        params = PhysicalParams(mass=1.0, epsilon=1e-4, lam=1.0)
        assert asymptotics.min_box_half_width(params, 8.0) == 8.0
        M = cross_block(params, 8.0, 1024)
        assert np.all(np.isfinite(M))

    @pytest.mark.parametrize("mass, eps, box", [(0.0, 1e-4, 8.0), (1.0, 0.5, 2.0),
                                                (3.0, 1.0, 0.3)])
    def test_cross_block_nodes_ascend(self, mass, eps, box):
        params = PhysicalParams(mass=mass, epsilon=eps, lam=1.0)
        x_rows, _, y_cols, _ = asymptotics.cross_block_nodes(
            asymptotics.CrossBlockLayout(params, box), 1024)
        assert np.all(np.diff(x_rows) > 0) and np.all(np.diff(y_cols) > 0)

    def test_budget_too_small_rejected(self):
        params = PhysicalParams(mass=1.0, epsilon=1e-4, lam=1.0)
        with pytest.raises(ValueError, match="node budget n=32 too small"):
            asymptotics.cross_block_nodes(asymptotics.CrossBlockLayout(params, 8.0), 32)

    def test_cross_block_memory_is_checked_before_the_block(self, monkeypatch):
        # memory faked to hold the block at 12 nodes per panel: the check
        # names the largest budget that keeps 12, and where not even 4 nodes
        # per panel fit, it names 0
        def no_nodes(*args, **kwargs):
            raise AssertionError("node set built by the budget check")

        params = PhysicalParams(mass=1.0, epsilon=1e-4, lam=1.0)
        layout = asymptotics.CrossBlockLayout(params, 8.0)
        rows, _, cols, _ = asymptotics.cross_block_nodes(layout, 10**6)
        panels = (rows.size + cols.size) // 24
        at_12 = asymptotics._CROSS_BLOCK_BYTES * rows.size * cols.size // 4
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: at_12)
        monkeypatch.setattr(asymptotics, "panel_nodes", no_nodes)
        asymptotics.check_cross_block_budget([layout], 13 * panels - 1)
        with pytest.raises(ValueError, match=f"^--box-grid-size {13 * panels} needs more than "
                                             ".* physical memory holds; the largest "
                                             f"--box-grid-size that fits is {13 * panels - 1}$"):
            asymptotics.check_cross_block_budget([layout], 13 * panels)
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: at_12 // 9 - 1)
        with pytest.raises(ValueError, match="the largest --box-grid-size that fits is 0$"):
            asymptotics.check_cross_block_budget([layout], 4 * panels)

    @pytest.mark.parametrize("mass, box", [(0.0, 128.0), (1.0, 8.0)])
    @pytest.mark.parametrize("per_panel", [4, 13.5, 24, 40])
    def test_cross_block_memory_is_the_largest_block_of_the_grid(self, monkeypatch, mass, box,
                                                                 per_panel):
        # at a budget of 280 the alpha = 100 block (7 nodes on each of its 40
        # panels) outgrows the alpha = 1e4 one (4 on each of 68): memory that
        # holds the one but not the other refuses the budget
        grid = [PhysicalParams(mass=1.0, epsilon=1.0 / alpha, lam=1.0) for alpha in (1e2, 1e4)]
        layouts = [asymptotics.CrossBlockLayout(params, 8.0) for params in grid]
        sizes = [np.prod([nodes.size for nodes in asymptotics.cross_block_nodes(
            layout, 280)[::2]]) for layout in layouts]
        assert sizes == [18816, 18240]
        monkeypatch.setattr(discretization, "physical_memory_bytes",
                            lambda: asymptotics._CROSS_BLOCK_BYTES * 18816 - 1)
        asymptotics.check_cross_block_budget(layouts[1:], 280)
        with pytest.raises(ValueError, match="^--box-grid-size 280 needs more than"):
            asymptotics.check_cross_block_budget(layouts, 280)
        # one block at 4, 13 (a budget between 13 and 14), 24 and, beyond the
        # cap, still 24 nodes per panel: memory of exactly the block
        # cross_block_nodes builds holds the budget, and one byte less does not
        params = PhysicalParams(mass=mass, epsilon=1e-3, lam=1.0)
        assert asymptotics.min_box_half_width(params, box) == box
        layout = asymptotics.CrossBlockLayout(params, box)
        n = int(per_panel * layout.panels)
        rows, _, cols, _ = asymptotics.cross_block_nodes(layout, n)
        block = asymptotics._CROSS_BLOCK_BYTES * rows.size * cols.size
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: block)
        asymptotics.check_cross_block_budget([layout], n)
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: block - 1)
        with pytest.raises(ValueError, match=f"^--box-grid-size {n} needs more than"):
            asymptotics.check_cross_block_budget([layout], n)

    @pytest.mark.parametrize("mass", [0.0, 1.0])
    def test_entries_match_quadrature_kernel(self, monkeypatch, mass):
        # The same graded nodes and weights with the kernel replaced by
        # 2 Re of the (1, 1) entry of the oscillatory-quadrature reference.
        params = PhysicalParams(mass=mass, epsilon=0.5, lam=1.0)
        nodes = asymptotics.cross_block_nodes(asymptotics.CrossBlockLayout(params, 2.0), 96)
        M = asymptotics.assemble_offdiagonal_truncation(params, nodes)

        def reference(p, u):
            quad = np.vectorize(lambda v: 2.0 * kernel_quadrature(p, v)[0, 0].real)
            return quad(u)

        monkeypatch.setattr(asymptotics, "_scalar_kernel", reference)
        M_ref = asymptotics.assemble_offdiagonal_truncation(params, nodes)
        assert M.shape == M_ref.shape == (32, 64)
        assert np.abs(M - M_ref).max() < 1e-9


class TestBoxTail:
    """_box_tail_fraction against references that share no code with it."""

    @pytest.mark.parametrize("eps", [1e-4, 1e-2, 1.0])
    @pytest.mark.parametrize("box", [0.5, 8.0, 128.0])
    def test_massless_matches_30_digit_closed_form(self, eps, box):
        # k(u) = eps / (pi (eps^2 + u^2)): the mass beyond L is the share
        # (2/pi)(atan x - x/(1 + x^2)), x = eps/L, of the whole
        with mp.workdps(30):
            x = mp.mpf(eps) / box
            share = 2 / mp.pi * (mp.atan(x) - x / (1 + x * x))
            expected = float(mp.sqrt(share))
        params = PhysicalParams(mass=0.0, epsilon=eps, lam=1.0)
        got = asymptotics._box_tail_fraction(params, box)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mass", [1.0, 3.0])
    @pytest.mark.parametrize("eps", [1e-4, 1e-2, 1.0])
    @pytest.mark.parametrize("box", [0.5, 1.0, 8.0])
    def test_massive_matches_adaptive_quadrature_and_parseval(self, mass, eps, box):
        # the whole mass int_0^inf k^2 du is (1/4 pi) int exp(-2 eps omega) dk
        # = (m / 2 pi) K1(2 eps m) by Parseval
        params = PhysicalParams(mass=mass, epsilon=eps, lam=1.0)

        def k2(u):
            return float(asymptotics._scalar_kernel(params, np.array([u]))[0]) ** 2

        tail = sum(integrate.quad(k2, box * 2.0**j, box * 2.0 ** (j + 1), epsabs=0.0,
                                  epsrel=1e-13, limit=200)[0] for j in range(40))
        total = mass * special.k1(2.0 * eps * mass) / (2.0 * np.pi)
        expected = np.sqrt(tail / total)
        assert expected > 1e-30
        got = asymptotics._box_tail_fraction(params, box)
        assert got == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_subnormal_kernel_cannot_trip_the_check(self):
        # at m eps = 356 the kernel's square sinks to subnormals, which carry
        # no relative accuracy for the 16-node check to find
        params = PhysicalParams(mass=356.0, epsilon=1.0, lam=1.0)
        for box in (0.25, 1.0, 8.0):
            assert 0.0 <= asymptotics._box_tail_fraction(params, box) < 1e-4
        assert asymptotics.min_box_half_width(params, 0.25) == 0.5

    def test_widths_whose_tail_panels_overflow_are_refused(self):
        params = PhysicalParams(mass=0.0, epsilon=0.01, lam=1.0)
        top = asymptotics.MAX_BOX_HALF_WIDTH
        assert asymptotics.min_box_half_width(params, top) == top
        for width in (np.nextafter(top, np.inf), 1e300):
            with pytest.raises(ValueError, match="too large"):
                asymptotics.min_box_half_width(params, width)

    def test_doubling_stops_before_the_panels_overflow(self, monkeypatch):
        # a NaN fraction fails the gate, so the box doubles until refused
        widths = []

        def nan_fraction(params, width):
            widths.append(width)
            return float("nan")

        monkeypatch.setattr(asymptotics, "_box_tail_fraction", nan_fraction)
        params = PhysicalParams(mass=0.0, epsilon=0.01, lam=1.0)
        with pytest.raises(ValueError, match="too large"):
            asymptotics.min_box_half_width(params, 8.0)
        assert widths[-1] <= asymptotics.MAX_BOX_HALF_WIDTH < 2.0 * widths[-1]

    def test_unresolved_kernel_signals(self, monkeypatch):
        # an integrand the 16- and 32-node panel sums disagree on
        monkeypatch.setattr(asymptotics, "_scalar_kernel",
                            lambda params, u: np.sin(1e3 * u))
        params = PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0)
        with pytest.raises(ConvergenceError, match="box-tail quadrature"):
            asymptotics.min_box_half_width(params, 8.0)
