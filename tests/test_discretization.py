import gc
import mmap
import os
import platform
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamond_entropy import (
    ConvergenceError,
    Grid,
    GridRule,
    PhysicalParams,
    build_grid,
    clear_spectrum_cache,
    discretization,
    kernel_blocks,
    operator_eigenvalues,
)
from oracle import (
    direct_matrix,
    direct_operator,
    direct_spectrum,
    kernel_quadrature,
)

TWO_PI = 2.0 * np.pi


class TestAssembleOperator:
    def test_single_node_matrix_is_kernel_at_zero(self):
        grid = Grid(nodes=[0.5], weights=[1.0], rule=GridRule.MIDPOINT, lam=1.0)
        params = PhysicalParams(mass=0.0, epsilon=1.0, lam=1.0)
        np.testing.assert_allclose(
            direct_operator(params, grid), np.diag([1 / TWO_PI, 1 / TWO_PI]), rtol=1e-14
        )

    def test_hermitization_correction_tiny_for_closed_form(self):
        params = PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0)
        M = direct_matrix(params, build_grid(64, 1.0))
        assert np.abs(M - M.conj().T).max() / 2.0 < 1e-12

    def test_eigenvalue_range_massive(self):
        params = PhysicalParams(mass=1.0, epsilon=0.05, lam=1.0)
        ev = operator_eigenvalues(params, build_grid(512, 1.0), use_cache=False)
        assert ev.min() >= -1e-6
        assert ev.max() <= 1 + 1e-6

    @pytest.mark.parametrize("mass, n, epsilon", [
        pytest.param(0.0, 48, 0.2, id="0.0"),
        pytest.param(1.3, 48, 0.2, id="1.3"),
        (0.0, 255, 0.002), (1.3, 255, 0.002), (0.0, 256, 0.002), (1.3, 256, 0.002),
        (0.0, 257, 0.002), (1.3, 257, 0.002),
        (0.0, 127, 0.002), (1.3, 127, 0.002), (0.0, 128, 0.002), (1.3, 128, 0.002),
        (0.0, 129, 0.002), (1.3, 129, 0.002), (0.0, 259, 0.002), (1.3, 259, 0.002),
    ])
    def test_fast_spectrum_matches_full_assembly(self, mass, n, epsilon):
        # Sharp kernels with odd and even N amplify any mirror asymmetry by 1/eps^2.
        # At eps = 0.002 these grids under-resolve the kernel (the spectrum reaches
        # 1.12), so the range check is off; the oracle sees the same matrix.
        params = PhysicalParams(mass=mass, epsilon=epsilon, lam=1.0)
        grid = build_grid(n, 1.0)
        full = direct_spectrum(params, grid)
        fast = operator_eigenvalues(params, grid, validate=False, use_cache=False)
        assert np.abs(np.sort(full) - np.sort(fast)).max() < 1e-12

    @pytest.mark.parametrize("mass", [0.0, 1.0])
    @pytest.mark.parametrize("n", [4, 5, 256, 257, 1025])
    def test_kernel_filled_on_half_the_rows(self, monkeypatch, mass, n):
        # strips of the fundamental domain {i <= j <= n-1-i}: rows a:b of the
        # top ceil(n/2), columns a:n-a, so about n^2/4 separations in all;
        # at n = 1025 a strip holds 31 rows, and the last of 17 holds 17
        grid = build_grid(n, 1.0)
        x = grid.nodes
        calls = []
        kernel = discretization.kernel_blocks

        def recording(params, u):
            calls.append(np.array(u))
            return kernel(params, u)

        monkeypatch.setattr(discretization, "kernel_blocks", recording)
        params = PhysicalParams(mass=mass, epsilon=0.1, lam=1.0)
        operator_eigenvalues(params, grid, validate=False, use_cache=False)
        strip_rows = max(1, discretization._FILL_ELEMENTS // n)
        assert all(u.shape[0] <= strip_rows for u in calls)
        assert sum(u.size for u in calls) <= n * n / 4 + strip_rows * n
        a = 0
        for u in calls:
            assert np.array_equal(u, x[a:a + u.shape[0], None] - x[None, a:n - a])
            a += u.shape[0]
        assert a == (n + 1) // 2

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 300, 2047])
    def test_strip_weights_are_the_fundamental_domain(self, monkeypatch, n):
        # with a kernel of ones, A is sw_i sw_j on D = {i <= j <= n-1-i},
        # halved on the antidiagonal j = i', B + C the same halved on the
        # diagonal j = i, and both are exactly 0 off D. Odd n, a partial last
        # strip (n = 300, 2047) and a last strip whose first and last k
        # columns overlap (n = 63, 65, 127, 2047) are all covered
        strip_terms = discretization._strip_terms
        strips = []

        def recording(params, x, sw, rows, cols, tri):
            strips.append((rows, cols, *strip_terms(params, x, sw, rows, cols, tri)))
            return strips[-1][2:]

        monkeypatch.setattr(discretization, "kernel_blocks",
                            lambda params, u: (np.ones(u.shape), np.ones(u.shape), 0.0))
        monkeypatch.setattr(discretization, "_strip_terms", recording)
        monkeypatch.setattr(discretization, "_solve",
                            lambda triangles: tuple(np.zeros(v.shape[0]) for v, _ in triangles))
        grid = build_grid(n, 1.0)
        discretization._spectrum(PhysicalParams(0.0, 0.1, 1.0), grid.nodes, grid.weights)
        sw = np.sqrt(grid.weights)
        assert sum(rows.stop - rows.start for rows, *_ in strips) == (n + 1) // 2
        for rows, cols, A, P, Q in strips:
            i = np.arange(n)[rows, None]
            j = np.arange(n)[None, cols]
            W = np.where((j >= i) & (j <= n - 1 - i), sw[rows, None] * sw[None, cols], 0.0)
            assert np.array_equal(A, np.where(j == n - 1 - i, 0.5 * W, W))
            assert np.array_equal(P, np.where(j == i, 0.5 * W, W))
            assert Q is P

    @pytest.mark.parametrize("mass", [0.0, 1.0])
    @pytest.mark.parametrize("n", [2048, 4096])
    def test_traced_peak_is_a_fixed_strip_budget(self, mass, n):
        # tracemalloc sees numpy's allocations but not the buffer's mapping:
        # what is left, the fill's strip temporaries and O(N) vectors, stays
        # under one bound at every N, and the in-place solve copies nothing
        params = PhysicalParams(mass=mass, epsilon=0.002, lam=1.0)
        grid = build_grid(n, 1.0)
        tracemalloc.start()
        try:
            operator_eigenvalues(params, grid, validate=False, use_cache=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the preflight still counts one whole (N + 1) x N buffer at both masses
        assert discretization.spectrum_buffer_bytes(n) == 8 * n * n + 8 * n
        assert peak <= 32 * 8 * discretization._FILL_ELEMENTS + 16 * 8 * n

    @pytest.mark.skipif(not os.path.exists("/proc/self/pagemap"), reason="needs Linux pagemap")
    @pytest.mark.parametrize("n, mass, partner, most", [
        (1023, 0.0, None, 0.76), (1024, 0.0, None, 0.80), (2047, 0.0, None, 0.65),
        (2048, 0.0, None, 0.65), (2048, 1.0, None, None), (2048, 0.0, 0.0025, None),
    ], ids=["massless-alone-1023", "massless-alone-1024", "massless-alone-2047",
            "massless-alone-2048", "massive", "massless-partner"])
    def test_only_the_written_triangles_are_resident(self, monkeypatch, n, mass, partner, most):
        # at mass 0 without a partner the fill writes only the upper triangle
        # (most is the largest resident fraction allowed): with 4 KiB pages,
        # 0.75 of the buffer at N = 1023 and 1024 and 0.62 at 2047 and 2048,
        # where no strip writes a zero on a page below the diagonal; all of it
        # where both are filled
        total = 8 * n * (n + 1)
        solve = discretization._eigvalsh_in_place
        resident_at_solve = []

        def recording(buf, upper):
            resident_at_solve.append(resident_bytes(buf))
            return solve(buf, upper)

        monkeypatch.setattr(discretization, "_eigvalsh_in_place", recording)
        clear_spectrum_cache()
        params = PhysicalParams(mass=mass, epsilon=0.002, lam=1.0)
        partner = None if partner is None else massless(partner)
        try:
            operator_eigenvalues(params, build_grid(n, 1.0), validate=False, partner=partner)
        finally:
            clear_spectrum_cache()
        assert len(resident_at_solve) == (1 if most else 2)
        for rss in resident_at_solve:
            assert rss <= most * total if most else rss >= 0.95 * total

    @pytest.mark.skipif(not os.path.exists("/proc/self/pagemap"), reason="needs Linux pagemap")
    @pytest.mark.parametrize("n", [300, 1023, 2047, 2048])
    @pytest.mark.parametrize("mass, partner", [(0.0, None), (1.0, None), (0.0, 0.0025)],
                             ids=["massless-alone", "massive", "massless-partner"])
    def test_the_pages_resident_at_solve_are_the_pages_the_fill_writes(self, monkeypatch, n,
                                                                       mass, partner):
        # the strips' own += fault the buffer in: every page one of them
        # writes is resident, and no other page is, whatever the page size
        # and the strips' reach past the diagonal. NaN terms mark each
        # element written, since NaN survives every += and -= of the fill
        strip_terms = discretization._strip_terms
        at_solve = []

        def marked(*args):
            return tuple(np.full_like(term, np.nan) for term in strip_terms(*args))

        def recording(triangles):
            view = triangles[0][0]
            resident = resident_pages(view)  # before any read maps the zero page
            elements = np.frombuffer(mapping_of(view))
            written = np.zeros(resident.size * (mmap.PAGESIZE // 8), dtype=bool)
            written[:elements.size] = np.isnan(elements)
            at_solve.append((resident, written.reshape(resident.size, -1).any(axis=1)))
            return tuple(np.zeros(view.shape[0]) for view, _ in triangles)

        monkeypatch.setattr(discretization, "_strip_terms", marked)
        monkeypatch.setattr(discretization, "_solve", recording)
        params = PhysicalParams(mass=mass, epsilon=0.002, lam=1.0)
        partner = None if partner is None else massless(partner)
        grid = build_grid(n, 1.0)
        discretization._spectrum(params, grid.nodes, grid.weights, partner)
        [(resident, written)] = at_solve
        assert written.any()
        assert np.array_equal(resident, written)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_buffer_is_unmapped_when_its_spectrum_returns_or_fails(self, monkeypatch, threads):
        # no view of the mapping outlives the spectrum, not even in the
        # traceback of a failed solve, and no cycle waits for the collector
        solve = discretization._eigvalsh_in_place
        mappings = []

        def recording(buf, upper):
            mappings.append(weakref.ref(mapping_of(buf)))
            return solve(buf, upper)

        monkeypatch.setattr(discretization, "_eigvalsh_in_place", recording)
        monkeypatch.setattr(discretization, "_cpu_share", lambda: threads)
        params = PhysicalParams(mass=1.0, epsilon=0.01, lam=1.0)
        grid = build_grid(300, 1.0)
        dsyevd = discretization._DSYEVD

        def failing_dsyevd(layout, jobz, uplo, *args):
            # b"U" is the lower triangle of the C-ordered buffer, S-'s
            return 7 if uplo == b"U" else dsyevd(layout, jobz, uplo, *args)

        threads_before = threading.active_count()
        gc.disable()
        try:
            operator_eigenvalues(params, grid, use_cache=False)
            assert len(mappings) == 2 and mappings[0]() is None
            monkeypatch.setattr(discretization, "_DSYEVD", failing_dsyevd)
            with pytest.raises(ConvergenceError, match="info = 7"):
                operator_eigenvalues(params, grid, use_cache=False)
            assert len(mappings) == 4 and mappings[2]() is None
        finally:
            gc.enable()
        assert threading.active_count() == threads_before

    def test_memory_preflight_scales_with_mass_and_processes(self, monkeypatch):
        # one (N + 1) x N buffer per spectrum at every mass; the check
        # returns how many spectra fit at once
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: 3 * 8 * 4096 * 4097)
        assert discretization.check_spectrum_memory(4096) == 3
        assert discretization.check_spectrum_memory(4097) == 2
        assert discretization.check_spectrum_memory(7094) == 1
        with pytest.raises(ValueError, match="largest grid-size cap that fits is 7094$"):
            discretization.check_spectrum_memory(7095)

    @pytest.mark.parametrize("count", [32, 10**400], ids=["32", "1e400"])
    def test_memory_check_bisects_any_growing_cost(self, monkeypatch, count):
        # the same search serves quadratic and linear costs, at counts of any size
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: 1000)
        with pytest.raises(ValueError, match=f"^--x {count} needs .* largest --x that fits is 31$"):
            discretization.check_memory(lambda k: k * k, count, "--x")
        with pytest.raises(ValueError, match="fits at dim 3 is 333$"):
            discretization.check_memory(lambda k: 3 * k, count * 11, "--y", " at dim 3")
        assert discretization.check_memory(lambda k: k * k, 31, "--x") == 1
        assert discretization.check_memory(lambda k: 3 * k, 111, "--y") == 3

    @pytest.mark.parametrize("physical, cgroup, holds", [
        (1000, None, "physical memory holds"),  # no cgroup limit set
        (1000, 2 * 10**6, "physical memory holds"),  # a cgroup limit above physical memory
        (10**6, 1000, "this process's cgroup memory limit allows"),
    ])
    def test_memory_check_names_the_least_limit(self, monkeypatch, physical, cgroup, holds):
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: physical)
        monkeypatch.setattr(discretization, "_cgroup_memory_bytes", lambda: cgroup)
        with pytest.raises(ValueError, match=f"^--x 32 needs more than the 1e\\+03 bytes {holds}; "
                                             "the largest --x that fits is 31$"):
            discretization.check_memory(lambda k: k * k, 32, "--x")
        assert discretization.check_memory(lambda k: k * k, 31, "--x") == 1

    def test_cgroup_limit_is_the_least_on_the_cgroups_path(self, tmp_path):
        # a v1 memory cgroup /a/b and a v2 cgroup /a, mounted under tmp_path;
        # v1 writes an unlimited cgroup as a huge number, v2 as "max"
        table = tmp_path / "cgroup"
        table.write_text("4:memory:/a/b\n3:cpuset:/jobs\n0::/a\n")
        (tmp_path / "memory" / "a" / "b").mkdir(parents=True)
        (tmp_path / "memory" / "memory.limit_in_bytes").write_text("9223372036854771712\n")
        (tmp_path / "memory" / "a" / "memory.limit_in_bytes").write_text("5000\n")
        (tmp_path / "memory" / "a" / "b" / "memory.limit_in_bytes").write_text("7000\n")
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "memory.max").write_text("max\n")
        (tmp_path / "jobs").mkdir()
        (tmp_path / "jobs" / "memory.max").write_text("10\n")  # on the cpuset's path only
        assert discretization._cgroup_memory_bytes(str(table), str(tmp_path)) == 5000
        (tmp_path / "a" / "memory.max").write_text("4096\n")
        assert discretization._cgroup_memory_bytes(str(table), str(tmp_path)) == 4096
        table.write_text("0::/jobs/x\n")  # v2 alone: /jobs/x sets no limit, /jobs does
        assert discretization._cgroup_memory_bytes(str(table), str(tmp_path)) == 10
        table.write_text("0::/\n")
        assert discretization._cgroup_memory_bytes(str(table), str(tmp_path)) is None
        assert discretization._cgroup_memory_bytes(str(tmp_path / "none"), str(tmp_path)) is None

    @pytest.mark.parametrize("upper", [True, False])
    @pytest.mark.parametrize("n", [300, 1025])
    def test_lapack_solves_one_triangle_in_place(self, n, upper):
        # _spectrum keeps S+ and S- in the two triangles of one buffer: a
        # solve must neither copy the buffer nor touch the other triangle,
        # also at n = 1025, where the two-stage driver's band reduction runs
        buf = np.random.default_rng(11).standard_normal((n, n))
        named = np.triu_indices(n) if upper else np.tril_indices(n)
        other = np.tril_indices(n, -1) if upper else np.triu_indices(n, 1)
        before = buf[named].copy()
        kept = buf[other].copy()
        symmetric = np.zeros((n, n))
        symmetric[named] = before
        symmetric += np.triu(symmetric, 1).T + np.tril(symmetric, -1).T
        # LAPACKE reads buf's memory in column-major order, as buf.T, whose
        # lower triangle (uplo 'L') is buf's upper one
        ev = discretization._eigvalsh_in_place(buf, upper=upper)
        assert np.array_equal(buf[other], kept)
        assert not np.array_equal(buf[named], before)  # overwritten, not copied
        assert np.abs(ev - np.linalg.eigvalsh(symmetric)).max() < 1e-10

    @pytest.mark.parametrize("n", [300, 1025])
    def test_plus_and_minus_views_keep_their_own_diagonals(self, n):
        # _spectrum holds S+ on and above the diagonal of buf[:n] and S- on
        # and below the diagonal of buf[1:]: the two triangles are disjoint,
        # so the solve of S+ leaves S- bit for bit
        buf = np.random.default_rng(12).standard_normal((n + 1, n))
        plus, minus = buf[:n], buf[1:]
        s_plus = np.triu(plus)
        s_plus += np.triu(s_plus, 1).T
        s_minus = np.tril(minus)
        s_minus += np.tril(s_minus, -1).T
        ev_plus = discretization._eigvalsh_in_place(plus, upper=True)
        assert np.array_equal(np.tril(minus), np.tril(s_minus))
        ev_minus = discretization._eigvalsh_in_place(minus, upper=False)
        assert np.abs(ev_plus - np.linalg.eigvalsh(s_plus)).max() < 1e-10
        assert np.abs(ev_minus - np.linalg.eigvalsh(s_minus)).max() < 1e-10

    def test_fallback_counts_the_copy_numpy_makes(self, monkeypatch):
        # without LAPACKE in numpy's OpenBLAS, np.linalg.eigvalsh solves an
        # N x N copy of the buffer, and the memory checks count it
        monkeypatch.setattr(discretization, "_DSYEVD", None)
        n = 4096
        assert discretization.spectrum_buffer_bytes(n) == 16 * n * n + 8 * n
        monkeypatch.setattr(discretization, "physical_memory_bytes",
                            lambda: 3 * (16 * n * n + 8 * n))
        assert discretization.check_spectrum_memory(n) == 3
        assert discretization.check_spectrum_memory(n + 1) == 2
        total = discretization.physical_memory_bytes()
        fits = max(k for k in range(7000, 7200) if 16 * k * k + 8 * k <= total)
        assert discretization.check_spectrum_memory(fits) == 1
        with pytest.raises(ValueError, match=f"largest grid-size cap that fits is {fits}$"):
            discretization.check_spectrum_memory(fits + 1)

    @pytest.mark.parametrize("mass", [0.0, 1.0])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_in_place_fallback_and_scipy_solves_agree(self, monkeypatch, mass, n):
        # S- is solved after S+ in the same buffer at mass 1; scipy is a
        # test-only reference
        scipy_linalg = pytest.importorskip("scipy.linalg")

        def scipy_evd(buf, upper):
            return scipy_linalg.eigh(buf.T, lower=upper, eigvals_only=True, driver="evd",
                                     overwrite_a=True, check_finite=False)

        params = PhysicalParams(mass=mass, epsilon=0.01, lam=1.0)
        grid = build_grid(n, 1.0)

        def spectrum():
            return operator_eigenvalues(params, grid, validate=False, use_cache=False)

        in_place = spectrum()
        with monkeypatch.context() as patch:
            patch.setattr(discretization, "_DSYEVD", None)
            fallback = spectrum()
        with monkeypatch.context() as patch:
            patch.setattr(discretization, "_eigvalsh_in_place", scipy_evd)
            reference = spectrum()
        assert discretization._DSYEVD is not None  # this machine's numpy exports LAPACKE
        assert np.abs(in_place - reference).max() <= 1e-14
        assert np.abs(fallback - reference).max() <= 1e-14

    def test_failed_solve_raises(self, monkeypatch):
        monkeypatch.setattr(discretization, "_DSYEVD", lambda *args: 3)
        with pytest.raises(ConvergenceError, match="info = 3"):
            discretization._eigvalsh_in_place(np.eye(4), upper=True)

    def test_failed_fallback_solve_raises(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(discretization, "_DSYEVD", None)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        with pytest.raises(ConvergenceError, match="Eigenvalues did not converge"):
            discretization._eigvalsh_in_place(np.eye(4), upper=True)

    def test_in_place_solve_takes_only_writeable_square_c_ordered_doubles(self):
        read_only = np.eye(4)
        read_only.flags.writeable = False
        for buf in (np.eye(4)[:, ::2], np.eye(4, dtype=np.float32), np.zeros((4, 3)),
                    np.asfortranarray(np.arange(16.0).reshape(4, 4)), read_only):
            with pytest.raises(ValueError, match="writeable, C-contiguous float64"):
                discretization._eigvalsh_in_place(buf, upper=True)

    def test_quadrature_path_matches_closed_forms(self):
        params = PhysicalParams(mass=0.8, epsilon=0.5, lam=1.0)
        x = build_grid(8, 1.0).nodes
        diff = x[:, None] - x[None, :]
        a, b, c = kernel_blocks(params, diff)
        for idx in np.ndindex(diff.shape):
            quad = kernel_quadrature(params, float(diff[idx]))
            k11 = a[idx] + 1j * b[idx]
            closed = np.array([[k11, c[idx]], [c[idx], np.conj(k11)]])
            assert np.abs(closed - quad).max() < 1e-12

    def test_translation_invariance_of_spectrum(self):
        params = PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0)
        grid = build_grid(128, 1.0)
        ev0 = operator_eigenvalues(params, grid, use_cache=False)
        ev5 = operator_eigenvalues(params, grid, x_offset=5.0, use_cache=False)
        assert np.abs(ev0 - ev5).max() < 1e-10

    def test_symmetrized_matches_collocation_spectrum(self):
        params = PhysicalParams(mass=0.7, epsilon=0.5, lam=1.0)
        grid = build_grid(64, 1.0)
        op = direct_operator(params, grid)
        sw = np.sqrt(np.concatenate([grid.weights, grid.weights]))
        colloc = (op / sw[:, None]) * sw[None, :]  # w_j K(x_i - x_j)
        ev_colloc = np.sort(np.linalg.eigvals(colloc).real)
        ev_sym = np.sort(np.linalg.eigvalsh(op))
        assert np.abs(ev_colloc - ev_sym).max() < 1e-10

    def test_nystrom_consistency_defines_converged_n(self):
        params = PhysicalParams(mass=0.0, epsilon=0.1, lam=1.0)
        top_prev = None
        n_star = None
        for n in (64, 128, 256, 512, 1024):
            ev = operator_eigenvalues(params, build_grid(n, 1.0), use_cache=False)
            top = np.sort(ev)[::-1][:8]
            if top_prev is not None and np.max(np.abs(top - top_prev) / top_prev[0]) < 0.005:
                n_star = n
                break
            top_prev = top
        assert n_star is not None and n_star <= 1024

    def test_coarse_grid_range_violation_signals(self):
        params = PhysicalParams(mass=0.0, epsilon=0.002, lam=1.0)
        with pytest.raises(ConvergenceError):
            operator_eigenvalues(params, build_grid(128, 1.0), use_cache=False)

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_grid_on_another_interval_is_refused(self, use_cache):
        # the spectrum is read from the grid alone: a grid on (0, 1) with
        # params.lam = 2 would give the entropy of the wrong interval
        params = PhysicalParams(mass=0.0, epsilon=0.1, lam=2.0)
        with pytest.raises(ValueError, match=r"grid is on \(0, 1.0\), but params.lam is 2.0"):
            operator_eigenvalues(params, build_grid(512, 1.0), use_cache=use_cache)
        ev = operator_eigenvalues(params, build_grid(512, 2.0), use_cache=use_cache)
        assert ev.size == 1024

    def test_cache_distinguishes_grids_of_equal_size_and_rule(self):
        params = PhysicalParams(mass=0.0, epsilon=0.2, lam=1.0)
        clear_spectrum_cache()
        operator_eigenvalues(params, build_grid(4, 1.0))
        grid = Grid(nodes=[0.1, 0.3, 0.7, 0.9], weights=[0.2, 0.3, 0.3, 0.2],
                    rule=GridRule.GAUSS_LEGENDRE, lam=1.0)
        cached = operator_eigenvalues(params, grid)
        assert np.array_equal(cached, operator_eigenvalues(params, grid, use_cache=False))
        assert np.abs(cached - direct_spectrum(params, grid)).max() < 1e-12

    def test_cache_is_keyed_by_the_nodes_solved_on(self, monkeypatch):
        # an offset moves the nodes the spectrum is solved on: one entry per
        # offset, and a repeated offset is read back without a solve
        spectrum = discretization._spectrum
        solved = []

        def recording(params, x, weights, partner=None):
            solved.append(x[0])
            return spectrum(params, x, weights, partner)

        monkeypatch.setattr(discretization, "_spectrum", recording)
        params = PhysicalParams(mass=0.0, epsilon=0.2, lam=1.0)
        grid = build_grid(16, 1.0)
        clear_spectrum_cache()
        try:
            first = operator_eigenvalues(params, grid, x_offset=5.0)
            assert operator_eigenvalues(params, grid, x_offset=5.0) is first
            assert solved == [grid.nodes[0] + 5.0]
            operator_eigenvalues(params, grid, x_offset=0.0)
            assert solved == [grid.nodes[0] + 5.0, grid.nodes[0]]
            assert list(discretization._spectra) == [cache_key(params, grid, 5.0),
                                                     cache_key(params, grid)]
        finally:
            clear_spectrum_cache()

    def test_cached_spectrum_is_read_only(self):
        params = PhysicalParams(mass=0.0, epsilon=0.2, lam=1.0)
        grid = build_grid(16, 1.0)
        clear_spectrum_cache()
        ev = operator_eigenvalues(params, grid)
        original = ev.copy()
        with pytest.raises(ValueError):
            ev -= 1.0
        assert np.array_equal(operator_eigenvalues(params, grid), original)


@pytest.fixture
def set_blas_threads():
    """The setter of numpy's OpenBLAS thread count, which the test may call;
    the count before the test comes back after it."""
    set_threads = discretization._SET_BLAS_THREADS
    if set_threads is None:
        pytest.skip("numpy exports no OpenBLAS thread setter")
    before = discretization._BLAS_THREADS()
    yield set_threads
    set_threads(before)


@pytest.fixture
def one_blas_thread(set_blas_threads):
    """numpy's OpenBLAS on one thread for the test, as the benchmark runs it."""
    set_blas_threads(1)


@pytest.fixture
def two_cpus(monkeypatch):
    """This process alone on two CPUs, whatever the machine has, so two
    triangles solved at once run on one BLAS thread each."""
    monkeypatch.setattr(discretization.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(discretization, "_processes", 1)


class TestConcurrentSolves:
    """At mass > 0 S- may be solved on a helper thread while S+ is solved."""

    def _solves(self, monkeypatch, threads, params, grid):
        """The spectrum with the thread count forced, and the thread of each solve."""
        solve = discretization._eigvalsh_in_place
        solved_on = {}

        def recording(buf, upper):
            solved_on[upper] = threading.get_ident()
            return solve(buf, upper)

        with monkeypatch.context() as patch:
            patch.setattr(discretization, "_cpu_share", lambda: threads)
            patch.setattr(discretization, "_eigvalsh_in_place", recording)
            ev = operator_eigenvalues(params, grid, validate=False, use_cache=False)
        return ev, solved_on

    @pytest.mark.parametrize("mass", [0.7, 1.0])
    @pytest.mark.parametrize("epsilon, n", [(0.002, 255), (0.01, 512), (0.05, 1024)])
    def test_same_bits_with_and_without_the_helper(self, monkeypatch, one_blas_thread, two_cpus,
                                                   mass, epsilon, n):
        params = PhysicalParams(mass=mass, epsilon=epsilon, lam=1.0)
        grid = build_grid(n, 1.0)
        threads_before = threading.active_count()
        serial, serial_on = self._solves(monkeypatch, 1, params, grid)
        together, together_on = self._solves(monkeypatch, 2, params, grid)
        assert np.array_equal(serial, together)
        caller = threading.get_ident()
        assert serial_on == {True: caller, False: caller}
        assert together_on[True] == caller and together_on[False] != caller
        assert threading.active_count() == threads_before

    def test_free_heap_pages_go_back_before_the_solves(self, monkeypatch):
        # the pages the fill's temporaries freed are not held under LAPACK's
        # workspace; glibc has malloc_trim, so it is bound there
        if platform.libc_ver()[0] == "glibc":
            assert discretization._MALLOC_TRIM is not None
        calls = []
        solve = discretization._eigvalsh_in_place

        def recording(buf, upper):
            calls.append(("solve", upper))
            return solve(buf, upper)

        monkeypatch.setattr(discretization, "_MALLOC_TRIM", lambda pad: calls.append(("trim", pad)))
        monkeypatch.setattr(discretization, "_eigvalsh_in_place", recording)
        monkeypatch.setattr(discretization, "_cpu_share", lambda: 1)
        params = PhysicalParams(mass=1.0, epsilon=0.05, lam=1.0)
        operator_eigenvalues(params, build_grid(64, 1.0), validate=False, use_cache=False)
        assert calls == [("trim", 0), ("solve", True), ("solve", False)]

    def test_massless_spectrum_is_one_solve_on_the_calling_thread(self, monkeypatch):
        params = PhysicalParams(mass=0.0, epsilon=0.01, lam=1.0)
        _, solved_on = self._solves(monkeypatch, 2, params, build_grid(256, 1.0))
        assert solved_on == {True: threading.get_ident()}

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("failing", [b"L", b"U"])  # the triangle of S+, of S-
    def test_a_failed_solve_propagates(self, monkeypatch, threads, failing):
        dsyevd = discretization._DSYEVD

        def failing_dsyevd(layout, jobz, uplo, *args):
            return 7 if uplo == failing else dsyevd(layout, jobz, uplo, *args)

        monkeypatch.setattr(discretization, "_DSYEVD", failing_dsyevd)
        monkeypatch.setattr(discretization, "_cpu_share", lambda: threads)
        params = PhysicalParams(mass=1.0, epsilon=0.01, lam=1.0)
        threads_before = threading.active_count()
        with pytest.raises(ConvergenceError, match="info = 7"):
            operator_eigenvalues(params, build_grid(300, 1.0), use_cache=False)
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize("caller, cpus", [(2, 2), (1, 4)],
                             ids=["two-threads-on-2-cpus", "one-thread-on-4-cpus"])
    @pytest.mark.parametrize("fails", [None, b"L", b"U"])  # none, S+'s triangle, S-'s
    def test_each_solve_on_one_blas_thread_then_the_callers_count(self, monkeypatch,
                                                                 set_blas_threads, caller,
                                                                 cpus, fails):
        # the two solves share the CPUs, one thread each: two CPUs hold one
        # each, and a caller pinned to one thread stays on one however many
        # CPUs there are; the caller gets its count back on success and on
        # failure
        monkeypatch.setattr(discretization.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        monkeypatch.setattr(discretization, "_processes", 1)
        set_blas_threads(caller)
        dsyevd = discretization._DSYEVD
        seen = {}

        def recording_dsyevd(layout, jobz, uplo, *args):
            seen[uplo] = threading.get_ident(), discretization._BLAS_THREADS()
            return 7 if uplo == fails else dsyevd(layout, jobz, uplo, *args)

        monkeypatch.setattr(discretization, "_DSYEVD", recording_dsyevd)
        params = PhysicalParams(mass=1.0, epsilon=0.01, lam=1.0)
        if fails is None:
            operator_eigenvalues(params, build_grid(300, 1.0), use_cache=False)
        else:
            with pytest.raises(ConvergenceError, match="info = 7"):
                operator_eigenvalues(params, build_grid(300, 1.0), use_cache=False)
        calling_thread = threading.get_ident()
        assert seen[b"L"] == (calling_thread, 1)
        assert seen[b"U"][0] != calling_thread and seen[b"U"][1] == 1
        assert discretization._BLAS_THREADS() == caller

    def test_massive_bits_do_not_depend_on_the_callers_blas_threads(self, set_blas_threads,
                                                                    two_cpus):
        # at n = 300, unlike at a power of two, dsyevd_2stage's bits depend
        # on its thread count, but both solves run on one thread whatever
        # the caller's count
        params = PhysicalParams(mass=1.0, epsilon=0.01, lam=1.0)
        grid = build_grid(300, 1.0)
        spectra = []
        for threads in (1, 2):
            set_blas_threads(threads)
            spectra.append(operator_eigenvalues(params, grid, validate=False, use_cache=False))
            assert discretization._BLAS_THREADS() == threads
        assert np.array_equal(*spectra)

    def test_fallback_sets_no_thread_count(self, monkeypatch):
        # np.linalg.eigvalsh solves a copy, one triangle after the other, on
        # the caller's thread and BLAS count
        set_to = []
        monkeypatch.setattr(discretization, "_SET_BLAS_THREADS", set_to.append)
        monkeypatch.setattr(discretization, "_DSYEVD", None)
        params = PhysicalParams(mass=1.0, epsilon=0.05, lam=1.0)
        _, solved_on = self._solves(monkeypatch, 2, params, build_grid(64, 1.0))
        assert set_to == []
        assert solved_on == {True: threading.get_ident(), False: threading.get_ident()}

    # (CPUs the process may use, pool size, starting BLAS count, triangles,
    # BLAS threads each solve runs on, whether the second is on the helper)
    THREAD_RULE = [
        (2, 1, 2, 2, 1, True),   # two at once on two CPUs, one thread each
        (1, 1, 2, 2, 1, False),  # one CPU: one after the other on one thread
        (4, 1, 1, 2, 1, True),   # a caller pinned to one thread stays there
        (8, 1, 8, 2, 4, True),
        (8, 1, 3, 2, 3, True),   # never above the starting count
        (5, 3, 5, 2, 1, False),  # a pool worker whose share is one CPU
        (8, 3, 8, 2, 1, True),   # a worker's share of two, split between the solves
        (2, 1, 2, 1, 2, False),  # a lone solve on its share
        (2, 1, 4, 1, 2, False),  # a lone solve capped at its share
        (2, 2, 2, 1, 1, False),  # a lone solve in a pool worker of two
        (8, 3, 8, 1, 2, False),
        (8, 2, 3, 1, 3, False),  # a worker's share of four, capped at the starting count
        (8, 2, 1, 1, 1, False),  # a pinned pool worker stays on one thread
        (2, 5, 2, 1, 1, False),  # more workers than CPUs
    ]

    @pytest.mark.parametrize("cpus, pool, starting, triangles, threads, helper, fails", [
        (*row, fails) for row in THREAD_RULE for fails in (None, b"L", b"U")[:row[3] + 1]])
    def test_thread_rule(self, monkeypatch, cpus, pool, starting, triangles, threads, helper,
                         fails):
        # every solve, lone or beside another, runs on max(1, min(share // at
        # once, starting count)) BLAS threads, and the count is back at its
        # starting value after the spectrum returns or raises; fails names
        # the triangle whose solve returns info 7 (b"L" is S+'s)
        count = [starting]
        monkeypatch.setattr(discretization, "_BLAS_THREADS", lambda: count[0])
        monkeypatch.setattr(discretization, "_SET_BLAS_THREADS",
                            lambda threads: count.__setitem__(0, threads))
        monkeypatch.setattr(discretization.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        monkeypatch.setattr(discretization, "_processes", 1)
        discretization.share_cpus(pool)
        dsyevd = discretization._DSYEVD
        seen = {}

        def recording_dsyevd(layout, jobz, uplo, *args):
            seen[uplo] = threading.get_ident(), count[0]
            return 7 if uplo == fails else dsyevd(layout, jobz, uplo, *args)

        monkeypatch.setattr(discretization, "_DSYEVD", recording_dsyevd)
        params = PhysicalParams(mass=1.0 if triangles == 2 else 0.0, epsilon=0.05, lam=1.0)
        try:
            operator_eigenvalues(params, build_grid(64, 1.0), validate=False, use_cache=False)
        except ConvergenceError as exc:
            assert fails is not None and "info = 7" in str(exc)
        else:
            assert fails is None
        caller = threading.get_ident()
        solved = [b"L"] if triangles == 1 or (fails == b"L" and not helper) else [b"L", b"U"]
        assert sorted(seen) == solved
        assert seen[b"L"] == (caller, threads)
        if b"U" in seen:
            assert seen[b"U"][1] == threads and (seen[b"U"][0] != caller) == helper
        assert count == [starting]


def massless(epsilon):
    return PhysicalParams(mass=0.0, epsilon=epsilon, lam=1.0)


def mapping_of(view):
    """The mmap under a view of a spectrum buffer."""
    while not isinstance(view, mmap.mmap):
        view = view.obj if isinstance(view, memoryview) else view.base
    return view


def resident_pages(view):
    """Whether each page of a spectrum buffer's mapping is in memory and
    mapped by this process alone, from the present (63) and exclusive (56)
    bits of its /proc/self/pagemap entry: the buffer's own pages, not a
    neighbour the kernel merged into its mapping, nor the shared zero page
    that reading an unwritten page maps."""
    mapping = mapping_of(view)
    start = np.frombuffer(mapping, dtype=np.uint8).ctypes.data
    with open("/proc/self/pagemap", "rb") as pagemap:
        pagemap.seek(8 * (start // mmap.PAGESIZE))
        entries = np.frombuffer(pagemap.read(8 * -(-len(mapping) // mmap.PAGESIZE)), np.uint64)
    return ((entries >> np.uint64(63)) & (entries >> np.uint64(56)) & np.uint64(1)).astype(bool)


def resident_bytes(view):
    """Bytes of the resident_pages of a spectrum buffer's mapping."""
    return int(np.count_nonzero(resident_pages(view))) * mmap.PAGESIZE


def cache_key(params, grid, x_offset=0.0):
    return (params, (grid.nodes + x_offset).tobytes(), grid.weights.tobytes())


class TestPartnerSpectra:
    """At mass 0 the lower triangle of the buffer holds a partner's spectrum."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """The epsilon of every kernel strip and the triangle of every solve."""
        filled, solved = [], []
        kernel, solve = discretization.kernel_blocks, discretization._eigvalsh_in_place

        def recording_kernel(params, u):
            filled.append(params.epsilon)
            return kernel(params, u)

        def recording_solve(buf, upper):
            solved.append((upper, threading.get_ident()))
            return solve(buf, upper)

        monkeypatch.setattr(discretization, "kernel_blocks", recording_kernel)
        monkeypatch.setattr(discretization, "_eigvalsh_in_place", recording_solve)
        clear_spectrum_cache()
        yield filled, solved
        clear_spectrum_cache()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [255, 256, 1024])
    def test_partner_matches_its_own_solve_and_the_oracle(self, monkeypatch, recorded,
                                                          one_blas_thread, two_cpus, threads, n):
        # the solo solves below run on the one BLAS thread that each of two
        # solves at once gets, so the bits compare at every n
        filled, solved = recorded
        monkeypatch.setattr(discretization, "_cpu_share", lambda: threads)
        grid = build_grid(n, 1.0)
        params, partner = massless(0.02), massless(0.015)
        ev = operator_eigenvalues(params, grid, partner=partner, validate=False)
        assert set(filled) == {0.02, 0.015}
        solved_on = dict(solved)
        caller = threading.get_ident()
        assert len(solved) == 2 and solved_on[True] == caller
        assert (solved_on[False] == caller) == (threads == 1)
        assert list(discretization._spectra) == [cache_key(params, grid), cache_key(partner, grid)]
        packed = operator_eigenvalues(partner, grid, validate=False)
        assert len(solved) == 2  # read back from the cache
        solo = operator_eigenvalues(partner, grid, validate=False, use_cache=False)
        # the partner's solve leaves the spectrum that asked for it bit for bit
        assert np.array_equal(ev, operator_eigenvalues(params, grid, validate=False,
                                                       use_cache=False))
        assert np.abs(packed - solo).max() <= 1e-14
        assert np.abs(packed - direct_spectrum(partner, grid)).max() <= 1e-12

    def test_same_bits_with_and_without_the_helper(self, monkeypatch, one_blas_thread, two_cpus):
        grid = build_grid(300, 1.0)
        spectra = []
        for threads in (1, 2):
            monkeypatch.setattr(discretization, "_cpu_share", lambda: threads)
            clear_spectrum_cache()
            ev = operator_eigenvalues(massless(0.01), grid, partner=massless(0.008))
            spectra.append((ev, operator_eigenvalues(massless(0.008), grid)))
        clear_spectrum_cache()
        assert all(np.array_equal(a, b) for a, b in zip(*spectra))

    def test_cached_partner_is_not_filled_again(self, recorded):
        filled, solved = recorded
        grid = build_grid(256, 1.0)
        operator_eigenvalues(massless(0.015), grid)
        filled.clear(), solved.clear()
        operator_eigenvalues(massless(0.02), grid, partner=massless(0.015))
        assert set(filled) == {0.02}
        assert [upper for upper, _ in solved] == [True]

    def test_cached_spectrum_solves_no_partner(self, recorded):
        filled, solved = recorded
        grid = build_grid(256, 1.0)
        operator_eigenvalues(massless(0.02), grid)
        filled.clear(), solved.clear()
        operator_eigenvalues(massless(0.02), grid, partner=massless(0.015))
        assert filled == [] and solved == []
        assert cache_key(massless(0.015), grid) not in discretization._spectra

    @pytest.mark.parametrize("mass, partner_mass, use_cache", [
        (1.0, 0.0, True), (0.0, 1.0, True), (1.0, 1.0, True), (0.0, 0.0, False)])
    def test_partner_ignored_off_the_massless_cached_path(self, recorded, mass, partner_mass,
                                                          use_cache):
        filled, _ = recorded
        grid = build_grid(256, 1.0)
        params = PhysicalParams(mass=mass, epsilon=0.02, lam=1.0)
        partner = PhysicalParams(mass=partner_mass, epsilon=0.015, lam=1.0)
        ev = operator_eigenvalues(params, grid, partner=partner, use_cache=use_cache)
        assert set(filled) == {0.02}
        assert cache_key(partner, grid) not in discretization._spectra
        assert np.array_equal(ev, operator_eigenvalues(params, grid, use_cache=False))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_failed_partner_solve_propagates(self, monkeypatch, threads):
        dsyevd = discretization._DSYEVD

        def failing_dsyevd(layout, jobz, uplo, *args):
            # b"U" is the lower triangle of the C-ordered buffer, the partner's
            return 7 if uplo == b"U" else dsyevd(layout, jobz, uplo, *args)

        monkeypatch.setattr(discretization, "_DSYEVD", failing_dsyevd)
        monkeypatch.setattr(discretization, "_cpu_share", lambda: threads)
        clear_spectrum_cache()
        threads_before = threading.active_count()
        with pytest.raises(ConvergenceError, match="info = 7"):
            operator_eigenvalues(massless(0.02), build_grid(300, 1.0), partner=massless(0.015))
        assert threading.active_count() == threads_before
        assert not discretization._spectra  # neither spectrum is kept

    def test_least_recently_used_spectrum_is_dropped_past_256(self, recorded):
        filled, _ = recorded
        grid = build_grid(4, 1.0)
        params = [massless(0.1 + 0.001 * k) for k in range(257)]
        for p in params[:256]:
            operator_eigenvalues(p, grid)
        operator_eigenvalues(params[0], grid)  # now the most recently used
        filled.clear()
        operator_eigenvalues(params[256], grid)
        assert len(discretization._spectra) == 256
        assert cache_key(params[1], grid) not in discretization._spectra
        operator_eigenvalues(params[0], grid)
        assert filled == [params[256].epsilon]
        operator_eigenvalues(params[1], grid)
        assert filled == [params[256].epsilon, params[1].epsilon]


@settings(max_examples=40, deadline=None)
@given(
    mass=st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
    epsilon=st.floats(0.05, 1.0),
    lam=st.floats(0.2, 5.0),
    rule=st.sampled_from(list(GridRule)),
    x_offset=st.floats(-3.0, 3.0),
    n=st.integers(2, 65),
)
def test_reduced_spectrum_matches_direct_assembly(mass, epsilon, lam, rule, x_offset, n):
    params = PhysicalParams(mass=mass, epsilon=epsilon, lam=lam)
    grid = build_grid(n, lam, rule)
    fast = operator_eigenvalues(params, grid, x_offset=x_offset, validate=False, use_cache=False)
    direct = direct_spectrum(params, grid, x_offset)
    assert np.abs(fast - direct).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 300),
    mass=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
    epsilon=st.floats(0.002, 0.5),
)
def test_packed_spectrum_matches_direct_assembly(n, mass, epsilon):
    # both views of the shared buffer, the centre row at odd n and the
    # diagonal of S-, which it does not share with S+
    params = PhysicalParams(mass=mass, epsilon=epsilon, lam=1.0)
    grid = build_grid(n, 1.0)
    fast = operator_eigenvalues(params, grid, validate=False, use_cache=False)
    assert np.abs(fast - direct_spectrum(params, grid)).max() <= 1e-12
