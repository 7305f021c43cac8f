import inspect
import json
import os
import shlex
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import diamond_entropy
from diamond_entropy import (GridRule, PhysicalParams, RenyiOrder, asymptotics, cli,
                             discretization, entropy_pipeline)
from diamond_entropy.cli import build_parser, main, _parse_eps_grid
from diamond_entropy.schatten_toolkit import SchattenReport


def run_cli(args):
    return main(args)


class TestArgumentHandling:
    def test_negative_epsilon_exits_2(self, capsys):
        assert run_cli(["entropy", "--kappa", "2", "--epsilon", "-1"]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        assert run_cli(["frobnicate"]) == 2

    def test_bad_grid_spec_exits_2(self, monkeypatch, capsys):
        code = run_cli(
            ["sweep", "--kappa", "1", "--eps-grid", "nonsense"]
        )
        assert code == 2
        # a count that is no integer is named as a bad spec, not by int()
        for spec in ("0.1:0.002:8.5log", "0.1:0.002:log"):
            capsys.readouterr()
            assert run_cli(["sweep", "--kappa", "1", "--eps-grid", spec]) == 2
            err = capsys.readouterr().err
            assert f"bad grid spec {spec!r}" in err and "invalid literal" not in err
        # a count beyond memory is refused before any grid is built; 8 MiB
        # holds 524288 points of cli._GRID_POINT_BYTES
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: 8 * 1024**2)
        monkeypatch.setattr(np, "geomspace", None)
        for command, spec in ((["sweep", "--kappa", "1", "--eps-grid"],
                               "0.1:0.002:1000000000000log"),
                              (["diag", "log-growth", "--alpha-grid"],
                               "100:10000:1000000000000log")):
            assert run_cli([*command, spec]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"the largest Nlog count that fits in {spec!r} is 524288" in captured.err

    def test_entropy_and_sweep_share_their_physics_flags(self):
        shared = ["--kappa", "2", "--mass", "0.5", "--lambda", "3", "--grid-size", "512",
                  "--rule", "midpoint"]
        entropy = vars(build_parser().parse_args(["entropy", "--epsilon", "0.1", *shared]))
        sweep = vars(build_parser().parse_args(["sweep", "--eps-grid", "1:0.01:6log", *shared]))
        keys = ("kappa", "mass", "lam", "grid_size", "rule")
        assert [entropy[k] for k in keys] == [sweep[k] for k in keys] == [2.0, 0.5, 3.0, 512,
                                                                          "midpoint"]

    @pytest.mark.parametrize("command, dest, function, name", [
        (["entropy", "--kappa", "1", "--epsilon", "0.1"], "grid_size",
         entropy_pipeline.entanglement_entropy, "n"),
        (["entropy", "--kappa", "1", "--epsilon", "0.1"], "rule",
         entropy_pipeline.entanglement_entropy, "rule"),
        (["sweep", "--kappa", "1", "--eps-grid", "1:0.01:6log"], "grid_size",
         asymptotics.sweep, "n_max"),
        (["sweep", "--kappa", "1", "--eps-grid", "1:0.01:6log"], "rule",
         asymptotics.sweep, "rule"),
        (["diag", "offdiag"], "grid_size", asymptotics.offdiagonal_diagnostic, "n"),
        (["diag", "log-growth"], "box_grid_size", asymptotics.log_growth_diagnostic, "n"),
        (["diag", "log-growth"], "box_half_width", asymptotics.log_growth_diagnostic,
         "half_width"),
        (["diag", "log-growth"], "l0", asymptotics.log_growth_diagnostic, "l0"),
        (["diag", "log-growth"], "mass", asymptotics.log_growth_diagnostic, "mass"),
        (["diag", "log-growth"], "lam", asymptotics.log_growth_diagnostic, "lam"),
    ], ids=["entropy-grid-size", "entropy-rule", "sweep-grid-size", "sweep-rule",
            "offdiag-grid-size", "log-growth-box-grid-size", "log-growth-box-half-width",
            "log-growth-l0", "log-growth-mass", "log-growth-lambda"])
    def test_parser_default_is_the_library_default(self, command, dest, function, name):
        value = getattr(build_parser().parse_args(command), dest)
        if dest == "rule":
            value = GridRule(value)
        assert value == inspect.signature(function).parameters[name].default

    @pytest.mark.parametrize("spec", ["inf:0.002:8log", "nan:0.002:8log", "0.1:inf:8log"])
    def test_non_finite_eps_grid_exits_2_without_warnings(self, capsys, spec):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["sweep", "--kappa", "1", "--eps-grid", spec])
        assert code == 2
        assert caught == []
        err = capsys.readouterr().err
        assert "Warning" not in err and f"bad grid spec {spec!r}" in err

    @pytest.mark.parametrize("u_max", ["inf", "nan"])
    def test_non_finite_u_max_exits_2(self, capsys, u_max):
        code = run_cli(["kernel-dump", "--epsilon", "0.5", "--u-max", u_max])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "u-max" in captured.err

    @pytest.mark.parametrize("command, code, message", [
        # np.linspace's span, then 2 pi u in the massless kernel, would overflow
        (["kernel-dump", "--u-max", "1e308"], 2, "u-max > 0 and at most 2.861e+307"),
        (["kernel-dump", "--u-max", "3e307"], 2, "u-max > 0 and at most 2.861e+307"),
        (["kernel-dump", "--mass", "10", "--u-max", "1e307"], 3,
         "Bessel evaluation of F1 left the finite range"),
        # k(0)^2 overflows below eps = 1e-154; the box tail does not see it
        (["diag", "log-growth", "--alpha-grid", "1e154,1e157"], 2,
         "node budget n=1024 too small"),
    ], ids=["u-1e308", "u-3e307", "mass-10-u-1e307", "log-growth-1e157"])
    def test_float_range_edges_exit_without_warnings(self, capsys, command, code, message):
        if command[0] == "kernel-dump":
            command = [*command, "--epsilon", "0.1", "--u-count", "3"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(command) == code
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Warning" not in captured.err and "Traceback" not in captured.err

    def test_unmappable_spectrum_buffer_exits_2_in_one_line(self):
        # the child caps its own address space at 2 GiB: the N = 17000
        # buffer, 2.3 GB, passes the memory check and then cannot be mapped
        try:
            discretization.check_spectrum_memory(17000)
        except ValueError:
            pytest.skip("the memory check refuses N = 17000 on this machine")
        script = ("import resource, sys\n"
                  "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2**31, hard))\n"
                  "from diamond_entropy.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", script, "diag", "offdiag", "--mass", "1",
                               "--alpha-grid", "100,1000", "--grid-size", "17000"],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: the spectrum buffer at N = 17000 (2312136000 bytes) "
                               "cannot be mapped: ")

    def test_bad_jobs_exits_2(self, capsys):
        code = run_cli(["entropy", "--kappa", "1", "--epsilon", "0.1", "--jobs", "0"])
        assert code == 2

    @pytest.mark.parametrize("option", ["--tail-tol", "--seed"])
    def test_removed_options_exit_2(self, option):
        code = run_cli(["entropy", "--kappa", "1", "--epsilon", "0.1", option, "1"])
        assert code == 2

    @pytest.mark.parametrize("grid_size", ["1000000", "1" + "0" * 400], ids=["1e6", "1e400"])
    @pytest.mark.parametrize("command", [
        ["entropy", "--epsilon", "0.01"],
        ["sweep", "--eps-grid", "0.1:0.002:8log", "--jobs", "2"],
    ])
    def test_grid_size_beyond_memory_exits_2_at_once(self, monkeypatch, capsys, command,
                                                     grid_size):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the memory preflight")

        # tracemalloc sees numpy's arrays but not a spectrum buffer's mapping
        for module, name in [(entropy_pipeline, "subtraction_trace"),
                             (entropy_pipeline, "build_grid"),
                             (asymptotics, "_sweep_point"),
                             (discretization, "_zeroed_buffer")]:
            monkeypatch.setattr(module, name, no_work)
        tracemalloc.start()
        try:
            code = run_cli([*command, "--kappa", "1", "--grid-size", grid_size])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        err = capsys.readouterr().err
        assert f"grid-size cap {grid_size} needs more than" in err
        assert "largest grid-size cap that fits" in err

    @pytest.mark.parametrize("jobs", ["0", "-4", "abc", "1.5"])
    def test_bad_sweep_jobs_exits_2_before_work(self, monkeypatch, capsys, jobs):
        monkeypatch.setattr(asymptotics, "_sweep_point", None)  # never reached
        code = run_cli(["sweep", "--kappa", "1", "--eps-grid", "0.1:0.002:8log",
                        "--jobs", jobs])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --jobs: must be an integer >= 1, got {jobs!r}" in captured.err

    @pytest.mark.parametrize("grid_size", ["4096", "1" + "0" * 400], ids=["4096", "1e400"])
    def test_offdiag_grid_size_beyond_memory_exits_2_at_once(self, monkeypatch, capsys,
                                                             grid_size):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the memory preflight")

        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: 8 * 1024**2)
        monkeypatch.setattr(asymptotics, "matched_grid_entropy", no_work)
        monkeypatch.setattr(asymptotics, "_high_low_sup_deviation", no_work)
        code = run_cli(["diag", "offdiag", "--alpha-grid", "10,31.6,100",
                        "--grid-size", grid_size])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"grid-size cap {grid_size} needs more than" in captured.err
        assert "largest grid-size cap that fits" in captured.err

    def test_offdiag_grid_size_below_64_exits_2_before_any_spectrum(self, monkeypatch,
                                                                   capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("spectrum computed below the smallest grid-size cap")

        monkeypatch.setattr(asymptotics, "matched_grid_entropy", no_work)
        monkeypatch.setattr(asymptotics, "_high_low_sup_deviation", no_work)
        assert run_cli(["diag", "offdiag", "--mass", "1", "--alpha-grid", "100,1000",
                        "--grid-size", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n must be >= 64, got 3" in captured.err

    @pytest.mark.parametrize("grid_size", ["0", "63"])
    def test_sweep_grid_size_zero_exits_2(self, monkeypatch, capsys, grid_size):
        # a cap below 64 is refused before a pool is built; a cap of no bytes
        # is no division by zero either
        def no_pool(*args, **kwargs):
            raise AssertionError("pool built for a cap below 64")

        monkeypatch.setattr(asymptotics, "_process_pool", no_pool)
        assert run_cli(["sweep", "--kappa", "1", "--eps-grid", "0.1:0.002:8log",
                        "--grid-size", grid_size, "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"n must be >= 64, got {grid_size}" in captured.err

    @pytest.mark.parametrize("command, foreign", [
        (["diag", "log-growth"], ["--kappa", "2"]),
        (["diag", "log-growth"], ["--grid-size", "64"]),
        (["diag", "offdiag"], ["--q", "0.25"]),
        (["diag", "offdiag"], ["--box-grid-size", "512"]),
        (["diag"], ["--diag-type", "offdiag"]),
    ])
    def test_diag_refuses_a_flag_of_the_other_type(self, monkeypatch, capsys, command,
                                                  foreign):
        def no_work(*args, **kwargs):
            raise AssertionError("diagnostic started with a foreign flag")

        monkeypatch.setattr(cli, "offdiagonal_diagnostic", no_work)
        monkeypatch.setattr(cli, "log_growth_diagnostic", no_work)
        assert run_cli([*command, *foreign]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert foreign[0] in captured.err

    @pytest.mark.parametrize("command", [
        ["entropy", "--kappa", "1", "--epsilon", "1e-310", "--grid-size", "128"],
        ["sweep", "--kappa", "1", "--eps-grid", "1e-300:1e-310:6log", "--grid-size", "128"],
    ], ids=["entropy", "sweep"])
    def test_overflowing_epsilon_exits_3(self, capsys, command):
        # a bulk term or massless kernel beyond the float range, and a sweep
        # point that no grid resolves, are numerical failures, not argument
        # errors
        assert run_cli(command) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-convergence" in captured.err and "usage" not in captured.err

    def test_a_small_order_below_the_floor_exits_3(self, capsys):
        # kappa = 0.3 converges at n = 2048 by the 0.5% test, but its floor
        # bound B, 0.030 there, is twice the tolerance of 0.0151: rounding
        # noise, not the spectrum, would set that digit
        command = ["entropy", "--kappa", "0.3", "--epsilon", "0.01", "--grid-size", "2048"]
        assert run_cli(command) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n = 2048" in captured.err and "floor bound B = 0.03" in captured.err

    def test_range_gate_message_stays_short(self, capsys):
        # no grid resolves epsilon = 1e-300: the largest eigenvalue is about
        # 2e296, which the message must not write out in full
        command = ["entropy", "--kappa", "1", "--epsilon", "1e-300", "--grid-size", "1024"]
        assert run_cli(command) == 3
        err = capsys.readouterr().err
        assert "leaves [-1e-06, 1+1e-06]" in err
        assert all(len(line) < 200 for line in err.splitlines())

    @pytest.mark.parametrize("command", [
        ["entropy", "--kappa", "1", "--epsilon", "1e-310", "--grid-size", "4096"],
        ["entropy", "--kappa", "1", "--mass", "1", "--epsilon", "1e-310"],
        ["kernel-dump", "--epsilon", "1e-310", "--u-max", "1", "--u-count", "3",
         "--output-format", "csv"],
    ], ids=["entropy", "entropy-massive", "kernel-dump"])
    def test_tiny_epsilon_exits_3_before_any_grid(self, monkeypatch, capsys, command):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built for an epsilon beyond the float range")

        monkeypatch.setattr(entropy_pipeline, "build_grid", no_grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("non-convergence: ")

    def test_failed_eigensolve_exits_3(self, monkeypatch, capsys):
        # LAPACKE reporting a failure on every rung is a numerical failure,
        # not an argument error; a failed solve caches nothing
        discretization.clear_spectrum_cache()
        monkeypatch.setattr(discretization, "_DSYEVD", lambda *args: -5)
        code = run_cli(["entropy", "--kappa", "1", "--epsilon", "0.1", "--grid-size", "256"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "LAPACKE dsyevd_2stage failed with info = -5" in captured.err
        assert "usage" not in captured.err

    @pytest.mark.parametrize("command, compute, target", [
        (["kernel-dump", "--epsilon", "0.5"], "kernel_blocks", "missing/k.csv"),
        (["verify", "--trials", "3", "--dims", "4"], "verify_inequalities", "."),
    ])
    def test_unwritable_output_path_exits_2_before_work(self, monkeypatch, capsys, tmp_path,
                                                        command, compute, target):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output-path check")

        monkeypatch.setattr(cli, compute, no_work)
        path = str(tmp_path / target)
        for fmt in ("json", "csv"):
            code = run_cli([*command, "--output-format", fmt, "--output-path", path])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and repr(path) in captured.err

    def test_output_path_failing_on_write_exits_2(self, monkeypatch, capsys, tmp_path):
        # the directory exists at the check and is gone when the output is written
        (tmp_path / "out").mkdir()
        kernel = cli.kernel_blocks

        def remove_directory_then_compute(*args):
            shutil.rmtree(tmp_path / "out")
            return kernel(*args)

        monkeypatch.setattr(cli, "kernel_blocks", remove_directory_then_compute)
        path = str(tmp_path / "out" / "k.csv")
        code = run_cli(["kernel-dump", "--epsilon", "0.5", "--output-path", path])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and repr(path) in captured.err

    def test_eps_grid_mini_language(self):
        grid = _parse_eps_grid("0.1:0.002:8log")
        np.testing.assert_allclose(grid, np.geomspace(0.1, 0.002, 8))
        with pytest.raises(ValueError):
            _parse_eps_grid("0.1;0.002;8log")
        with pytest.raises(ValueError):
            _parse_eps_grid("0.1:0.002:0log")


class TestEntropyCommand:
    def test_json_output_schema(self, capsys):
        assert run_cli(["entropy", "--kappa", "1", "--epsilon", "0.1", "--jobs", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == diamond_entropy.__version__
        assert doc["config"]["kappa"] == 1.0
        result = doc["result"]
        for key in (
            "params", "kappa", "n", "truncated_trace",
            "subtraction_trace", "entropy", "clamp_count", "converged",
        ):
            assert key in result
        assert result["converged"] is True
        assert result["entropy"] == pytest.approx(1.027821, abs=2e-3)

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "entropy.csv"
        code = run_cli(
            ["entropy", "--kappa", "1", "--epsilon", "0.1",
             "--output-format", "csv", "--output-path", str(out), "--jobs", "1"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# version:")
        assert lines[1].startswith("# config:")
        header = lines[2].split(",")
        row = lines[3].split(",")
        assert "entropy" in header
        value = float(row[header.index("entropy")])
        assert value == pytest.approx(1.027821, abs=2e-3)

    def test_cap_without_convergence_warns_on_stderr(self, capsys):
        code = run_cli(
            ["entropy", "--kappa", "1", "--epsilon", "0.01", "--grid-size", "256", "--jobs", "1"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["result"]["converged"] is False
        warning = captured.err.splitlines()
        assert len(warning) == 1
        assert "not converged" in warning[0] and "n=256" in warning[0]

    @pytest.mark.parametrize("kappa", ["20", "100"])
    def test_extreme_orders_finite(self, capsys, kappa):
        code = run_cli(["entropy", "--kappa", kappa, "--epsilon", "0.1",
                        "--grid-size", "256", "--jobs", "1"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert np.isfinite(result["entropy"])
        assert np.isfinite(result["subtraction_trace"])

    def test_an_extreme_small_order_unconverged_at_the_cap_is_refused(self, capsys):
        # kappa = 0.02 reaches the cap unconverged with S = 15.99 at n = 256,
        # where the floor bound B = 78.5 exceeds S itself
        code = run_cli(["entropy", "--kappa", "0.02", "--epsilon", "0.1",
                        "--grid-size", "256", "--jobs", "1"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "n = 256" in captured.err and "floor bound B = 78.5" in captured.err

    def test_midpoint_rule_flag(self, capsys):
        code = run_cli(["entropy", "--kappa", "1", "--epsilon", "0.5", "--grid-size", "1024",
                        "--rule", "midpoint"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["rule"] == "midpoint"
        params = PhysicalParams(mass=0.0, epsilon=0.5, lam=1.0)
        expected = entropy_pipeline.entanglement_entropy(params, RenyiOrder(1.0), n=1024,
                                                         rule=GridRule.MIDPOINT)
        gauss = entropy_pipeline.entanglement_entropy(params, RenyiOrder(1.0), n=1024)
        assert doc["result"]["entropy"] == expected.entropy != gauss.entropy
        assert doc["result"]["n"] == expected.grid_size

    def test_unresolvable_epsilon_exits_3(self, capsys):
        code = run_cli(
            ["entropy", "--kappa", "1", "--epsilon", "1e-5",
             "--grid-size", "128", "--jobs", "1"]
        )
        assert code == 3
        assert "non-convergence" in capsys.readouterr().err


class TestSweepCommand:
    def test_json_fit_and_determinism(self, tmp_path):
        out = tmp_path / "sweep.json"
        args = ["sweep", "--kappa", "1", "--mass", "0", "--lambda", "1",
                "--eps-grid", "0.5:0.01:6log", "--output-format", "json", "--jobs", "1",
                "--output-path", str(out)]
        assert run_cli(args) == 0
        first = out.read_bytes()
        assert run_cli(args) == 0
        assert out.read_bytes() == first
        doc = json.loads(out.read_text())
        assert doc["fit"]["theory_slope"] == pytest.approx(1 / 3, rel=1e-12)
        assert doc["fit"]["rel_error"] < 0.12
        assert len(doc["points"]) == 6

    def test_production_grid_sweep(self, capsys):
        # the full acceptance grid; reuses cached spectra when run after the
        # acceptance module, ~3 min standalone
        code = run_cli(
            ["sweep", "--kappa", "1", "--mass", "0", "--lambda", "1",
             "--eps-grid", "0.1:0.002:8log", "--output-format", "json", "--jobs", "1"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fit"]["theory_slope"] == pytest.approx(0.3333333333333333, rel=1e-12)
        assert doc["fit"]["rel_error"] < 0.10

    def test_csv_file_carries_the_fit(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--kappa", "1", "--eps-grid", "0.5:0.01:6log",
             "--output-format", "csv", "--output-path", str(out), "--jobs", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        fit = json.loads(lines[2].removeprefix("# fit: "))
        assert sorted(fit) == ["intercept", "r_squared", "rel_error", "slope", "theory_slope"]
        assert lines[3] == "epsilon,ln_inv_eps,entropy,n,converged"
        assert len(lines) == 4 + 6

    def test_midpoint_rule_flag(self, capsys):
        code = run_cli(["sweep", "--kappa", "1", "--eps-grid", "0.5:0.01:6log",
                        "--grid-size", "1024", "--rule", "midpoint", "--jobs", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["rule"] == "midpoint"
        expected = asymptotics.sweep(PhysicalParams(mass=0.0, epsilon=0.5, lam=1.0),
                                     RenyiOrder(1.0), np.geomspace(0.5, 0.01, 6), n_max=1024,
                                     rule=GridRule.MIDPOINT)
        assert doc["fit"]["slope"] == expected.slope
        assert [(p["entropy"], p["n"]) for p in doc["points"]] == [
            (p.entropy, p.grid_size) for p in expected.points]

    def test_failed_point_is_null_in_json_and_nan_in_csv(self, capsys):
        # eps = 0.002 has no admissible grid up to the cap of 256
        args = ["sweep", "--kappa", "1", "--eps-grid", "2:0.002:10log",
                "--grid-size", "256", "--jobs", "1"]
        assert run_cli(args) == 0

        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        failed = json.loads(capsys.readouterr().out, parse_constant=refuse)["points"][-1]
        assert failed["entropy"] is None
        assert failed["n"] == 256 and failed["converged"] is False
        assert run_cli([*args, "--output-format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[4 + 9] == "0.002,6.2146080984221914,nan,256,false"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_each_unconverged_point_is_named_on_stderr(self, jobs):
        # the reason of a null point comes back through the pool too
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "diamond_entropy.cli", "sweep", "--kappa", "1",
             "--eps-grid", "2:0.002:10log", "--grid-size", "256", "--jobs", jobs],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        cap = "not converged at the grid-size cap 256; reporting n=256; error bound"
        *unconverged, null = proc.stderr.splitlines()
        assert unconverged == [
            f"warning: sweep point epsilon=0.00928318: {cap} 0.0294, above the tolerance 0.0089",
            f"warning: sweep point epsilon=0.00430887: {cap} 5.74, above the tolerance 0.00476"]
        assert null.startswith("warning: sweep point epsilon=0.002: no grid size up to 256 "
                               "resolves epsilon=0.002")


    def test_a_refused_sweep_names_each_unconverged_point(self, capsys):
        code = run_cli(["sweep", "--kappa", "0.3", "--eps-grid", "0.05:0.001:6log",
                        "--grid-size", "1024"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        *named, refusal = captured.err.splitlines()
        assert refusal == "non-convergence: only 2 of 6 sweep points converged; need 5"
        epsilons = ("0.0104564", "0.00478176", "0.00218672", "0.001")
        assert len(named) == len(epsilons)
        for line, eps in zip(named, epsilons):
            assert line.startswith(f"warning: sweep point epsilon={eps}: ")
        assert "n = 1024: its floor bound B = 0.0233" in named[0]
        # S = -23.32 passes the floor bound; the discretization part names it
        assert named[2].endswith("not converged at the grid-size cap 1024; reporting n=1024; "
                                 "error bound 46.4, above the tolerance 0.117")
        assert "no grid size up to 1024 resolves epsilon=0.001" in named[3]

    def test_entropy_and_sweep_give_an_unconverged_point_one_reason(self, capsys):
        # eps = 0.01 ends both the sweep's grid and its ladder unconverged at 256
        assert run_cli(["entropy", "--kappa", "1", "--epsilon", "0.01",
                        "--grid-size", "256"]) == 0
        [entropy_line] = capsys.readouterr().err.splitlines()
        assert run_cli(["sweep", "--kappa", "1", "--eps-grid", "0.5:0.01:6log",
                        "--grid-size", "256"]) == 0
        [sweep_line] = capsys.readouterr().err.splitlines()
        reason = entropy_line.removeprefix("warning: entropy ")
        assert reason.startswith("not converged at the grid-size cap 256")
        assert sweep_line == f"warning: sweep point epsilon=0.01: {reason}"


class TestKernelDumpCommand:
    def test_csv_matches_closed_form(self, tmp_path):
        out = tmp_path / "kernel.csv"
        code = run_cli(
            ["kernel-dump", "--epsilon", "0.5", "--u-max", "2", "--u-count", "5",
             "--output-format", "csv", "--output-path", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[2].split(",")
        assert header == ["u", "re11", "im11", "re12", "im12", "re21", "im21", "re22", "im22"]
        rows = [line.split(",") for line in lines[3:]]
        assert len(rows) == 5
        for row in rows:
            u = float(row[0])
            expected = 1.0 / (2 * np.pi * (0.5 - 1j * u))
            assert float(row[1]) == pytest.approx(expected.real, rel=1e-15)
            assert float(row[2]) == pytest.approx(expected.imag, rel=1e-15, abs=1e-300)

    def test_17_significant_digits(self, tmp_path):
        out = tmp_path / "kernel.csv"
        run_cli(
            ["kernel-dump", "--epsilon", "0.3", "--u-max", "1", "--u-count", "3",
             "--output-format", "csv", "--output-path", str(out)]
        )
        row = out.read_text().splitlines()[3].split(",")
        value = float(row[1])
        assert format(value, ".17g") == row[1]

    def test_u_count_beyond_memory_exits_2_before_any_kernel(self, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("kernel evaluated before the memory preflight")

        # the most rows of cli._KERNEL_DUMP_ROW_BYTES that 8 MiB holds
        fits = 8 * 1024**2 // cli._KERNEL_DUMP_ROW_BYTES
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: 8 * 1024**2)
        with monkeypatch.context() as no_kernel:
            no_kernel.setattr(cli, "kernel_blocks", no_work)
            for count in (str(fits + 1), "20000000", "1" + "0" * 400):
                assert run_cli(["kernel-dump", "--epsilon", "0.5", "--u-count", count]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert (f"physical memory holds; the largest --u-count that fits is {fits}"
                        in captured.err)
        assert run_cli(["kernel-dump", "--epsilon", "0.5", "--u-count", str(fits)]) == 0
        assert len(json.loads(capsys.readouterr().out)["kernel"]) == fits

    @pytest.mark.parametrize("mass", ["0", "1"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_peak_memory_per_row_within_the_preflight_budget(self, tmp_path, fmt, mass):
        # max RSS of a child process at 50 000 rows over that at one row
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}

        def peak_rss(count: int) -> int:
            proc = subprocess.Popen(
                [sys.executable, "-m", "diamond_entropy.cli", "kernel-dump", "--mass", mass,
                 "--epsilon", "0.5", "--u-count", str(count), "--output-format", fmt,
                 "--output-path", str(tmp_path / f"kernel.{fmt}")], env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by proc
            assert proc.returncode == 0
            return usage.ru_maxrss * 1024  # Linux reports KiB

        rows = 50_000
        per_row = (peak_rss(rows) - peak_rss(1)) / (rows - 1)
        assert per_row <= cli._KERNEL_DUMP_ROW_BYTES


class TestVerifyCommand:
    def test_exit_zero_and_reports(self, capsys):
        code = run_cli(["verify", "--trials", "50", "--seed", "42"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        reports = doc["reports"]
        assert {r["dim"] for r in reports} == {4, 8, 16}
        assert all(r["passed"] for r in reports)

    def test_dim_3_exits_zero(self, capsys):
        # the commutator bound holds with equality; its zero singular value at
        # dim 3, rounding noise raised to q = 0.4, no longer fails it
        assert run_cli(["verify", "--dims", "3", "--seed", "1"]) == 0
        assert all(r["passed"] for r in json.loads(capsys.readouterr().out)["reports"])

    def test_failure_exits_4(self, monkeypatch, capsys):
        def fake_verify(dim, trials, seed):
            return [SchattenReport("rigged", trials, 1.0, seed)]

        monkeypatch.setattr("diamond_entropy.cli.verify_inequalities", fake_verify)
        monkeypatch.setattr("diamond_entropy.cli.verify_commutator_lemma", lambda *a: [])
        code = run_cli(["verify", "--trials", "5", "--dims", "4"])
        assert code == 4


    @pytest.mark.parametrize("trials, dims, message", [
        ("5", "4,64", "dim must lie in [2, 32], got 64"),
        ("0", "4", "trials must be >= 1"),
    ], ids=["dim-64", "trials-0"])
    def test_every_dim_checked_before_any_suite(self, monkeypatch, capsys, trials, dims,
                                                message):
        def no_suite(*args, **kwargs):
            raise AssertionError("suite ran before every dim was checked")

        monkeypatch.setattr(cli, "verify_inequalities", no_suite)
        monkeypatch.setattr(cli, "verify_commutator_lemma", no_suite)
        code = run_cli(["verify", "--trials", trials, "--dims", dims])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_trials_beyond_memory_exit_2_before_any_suite(self, monkeypatch, capsys):
        def no_suite(*args, **kwargs):
            raise AssertionError("suite ran before the memory preflight")

        # 8 MiB holds 39 trials at dim 32 and 2520 at dim 4, at
        # schatten_toolkit._SUITE_BYTES_PER_ENTRY bytes per matrix entry
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: 8 * 1024**2)
        with monkeypatch.context() as no_suites:
            no_suites.setattr(cli, "verify_inequalities", no_suite)
            no_suites.setattr(cli, "verify_commutator_lemma", no_suite)
            for trials, fits in (("40", "at dim 32 is 39"), ("100000000", "at dim 4 is 2520"),
                                 ("1" + "0" * 400, "at dim 4 is 2520")):
                assert run_cli(["verify", "--trials", trials, "--dims", "4,32"]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert f"the largest --trials that fits {fits}" in captured.err
        assert run_cli(["verify", "--trials", "39", "--dims", "4,32"]) == 0


class TestDiagCommand:
    def test_offdiag_json(self, capsys):
        code = run_cli(
            ["diag", "offdiag", "--mass", "1", "--kappa", "1",
             "--alpha-grid", "10,31.6,100", "--grid-size", "256"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        d = doc["diagnostics"]
        assert len(d["alpha_grid"]) == 3
        assert len(d["offdiag_ratios"]) == 3
        assert len(d["sup_deviations"]) == 3

    def test_offdiag_warns_once_per_alpha_the_grid_does_not_resolve(self, capsys):
        # at 256 nodes alpha = 1e3's spectra reach 1.52; alpha = 100 stays in the band
        code = run_cli(["diag", "offdiag", "--alpha-grid", "100,1000", "--grid-size", "256"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: offdiag alpha=1000: its spectra at n=256 stray 0.5271 outside [0, 1], "
            "past the range band 1e-06; the grid does not resolve this alpha"]
        ratios = json.loads(captured.out)["diagnostics"]["offdiag_ratios"]
        assert len(ratios) == 2 and all(np.isfinite(ratios))

    def test_log_growth_json(self, capsys):
        code = run_cli(
            ["diag", "log-growth", "--q", "0.5",
             "--alpha-grid", "100,1000,10000"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        d = doc["diagnostics"]
        assert len(d["logq_norms"]) == 3
        ratios = np.array(d["ratios_to_log_alpha"])
        assert ratios.max() <= 3.0 * ratios.min()

    @pytest.mark.parametrize("diag_type, extra, header", [
        ("offdiag", ["--grid-size", "256"], "alpha,offdiag_ratio,sup_deviation"),
        ("log-growth", ["--q", "0.5"], "alpha,logq_norm,ratio_to_log_alpha"),
    ])
    def test_csv_output(self, tmp_path, capsys, diag_type, extra, header):
        out = tmp_path / "diag.csv"
        code = run_cli(
            ["diag", diag_type, "--alpha-grid", "10,100,1000", *extra,
             "--output-format", "csv", "--output-path", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# version:")
        assert lines[1].startswith("# config:")
        assert lines[2] == header
        rows = [line.split(",") for line in lines[3:]]
        assert [float(row[0]) for row in rows] == [10.0, 100.0, 1000.0]
        assert all(len(row) == 3 for row in rows)

    def test_log_growth_massless_default_box_exits_2_before_any_svd(self, monkeypatch, capsys):
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD reached with a box the tail guard rejects")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        code = run_cli(["diag", "log-growth", "--mass", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "128" in captured.err

    @pytest.mark.parametrize("extra, message", [
        (["--alpha-grid", "100,1000,inf"], "bad alpha grid '100,1000,inf'"),
        (["--alpha-grid", "100,nan"], "bad alpha grid '100,nan'"),
        (["--mass", "-1"], "mass must be >= 0, got -1.0"),
    ], ids=["alpha-inf", "alpha-nan", "negative-mass"])
    def test_offdiag_bad_alpha_or_mass_exits_2_before_any_spectrum(self, monkeypatch, capsys,
                                                                   extra, message):
        def no_work(*args, **kwargs):
            raise AssertionError("spectrum computed before the parameter checks")

        monkeypatch.setattr(asymptotics, "matched_grid_entropy", no_work)
        monkeypatch.setattr(asymptotics, "_high_low_sup_deviation", no_work)
        code = run_cli(["diag", "offdiag", "--mass", "1", *extra])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("diag_type", ["offdiag", "log-growth"])
    @pytest.mark.parametrize("grid", ["10,1e4,inf", "10,nan", "0,100", "10,-5", "10,abc"])
    def test_alpha_grid_entries_must_be_finite_and_positive(self, monkeypatch, capsys,
                                                            diag_type, grid):
        def no_work(*args, **kwargs):
            raise AssertionError("diagnostic started with a bad alpha grid")

        monkeypatch.setattr(cli, "offdiagonal_diagnostic", no_work)
        monkeypatch.setattr(cli, "log_growth_diagnostic", no_work)
        code = run_cli(["diag", diag_type, f"--alpha-grid={grid}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad alpha grid {grid!r}: each entry must be finite and > 0" in captured.err

    def test_failed_svd_exits_3(self, monkeypatch, capsys):
        # LinAlgError is a ValueError, but no argument error
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        assert run_cli(["diag", "log-growth", "--alpha-grid", "10,1000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "non-convergence: SVD did not converge\n"

    @pytest.mark.parametrize("budget", ["240", "200"])
    def test_log_growth_node_budget_exits_2_before_any_svd(self, monkeypatch, capsys, budget):
        # 240 nodes cover the 40 and 52 panels at alpha = 100 and 1000, 200
        # only the 40; the grid's refusal names the 68 panels at alpha = 1e4
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD reached with a node budget that is too small")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        code = run_cli(["diag", "log-growth", "--box-grid-size", budget])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"error: node budget n={budget} too small: need at least 272 for 68 graded panels")

    def test_log_growth_box_grid_beyond_memory_exits_2_before_any_block(self, monkeypatch,
                                                                        capsys):
        # 8 MiB (96 bytes an element) hold each block of the grid at a budget
        # of 611, not at 612 nor at the default 1024; the budget named then runs
        def no_work(*args, **kwargs):
            raise AssertionError("cross block built beyond the memory check")

        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: 8 * 1024**2)
        command = ["diag", "log-growth", "--alpha-grid", "100,1000,10000"]
        with monkeypatch.context() as stubs:
            stubs.setattr(asymptotics, "cross_block_nodes", no_work)
            stubs.setattr(asymptotics, "assemble_offdiagonal_truncation", no_work)
            stubs.setattr(np.linalg, "svd", no_work)
            for budget in ([], ["--box-grid-size", "612"]):
                code = run_cli([*command, *budget])
                assert code == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.splitlines()[-1] == (
                    f"error: --box-grid-size {budget[-1] if budget else 1024} needs more than "
                    "the 8.39e+06 bytes physical memory holds; the largest --box-grid-size "
                    "that fits is 611")
        assert run_cli([*command, "--box-grid-size", "611"]) == 0
        assert len(json.loads(capsys.readouterr().out)["diagnostics"]["logq_norms"]) == 3

    @pytest.mark.parametrize("width", ["0", "-8"])
    def test_log_growth_nonpositive_box_exits_2(self, capsys, width):
        code = run_cli(["diag", "log-growth", "--mass", "0",
                        "--box-half-width", width])
        assert code == 2
        assert "box_half_width must be positive" in capsys.readouterr().err

    def test_log_growth_infinite_box_exits_2(self, capsys):
        code = run_cli(["diag", "log-growth", "--box-half-width", "inf"])
        assert code == 2
        assert "box_half_width must be positive and finite" in capsys.readouterr().err

    def test_log_growth_box_beyond_float_range_exits_2(self, capsys):
        # the box-tail panels would reach past the largest float; any
        # overflow warning fails the test
        code = run_cli(["diag", "log-growth", "--mass", "0",
                        "--alpha-grid", "10,100,1000", "--box-half-width", "1e300"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "box half-width 1e+300 is too large" in captured.err

    def test_log_growth_massless_wide_box_runs(self, capsys):
        code = run_cli(
            ["diag", "log-growth", "--mass", "0", "--q", "0.5",
             "--alpha-grid", "100,1000,10000", "--box-half-width", "128"]
        )
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["diagnostics"]["logq_norms"]) == 3

    def test_log_growth_negative_mass_exits_2(self, capsys):
        code = run_cli(
            ["diag", "log-growth", "--mass", "-1"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mass" in captured.err

    @pytest.mark.parametrize("q", ["0", "nan", "inf", "-0.5"])
    def test_log_growth_bad_q_exits_2(self, capsys, q):
        code = run_cli(["diag", "log-growth", "--q", q])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "q must be 1/l with l in {2, 3, 4}" in captured.err
        assert "Traceback" not in captured.err


class TestJobsResolution:
    def test_no_flag_no_env_records_no_jobs(self, monkeypatch, capsys):
        monkeypatch.delenv("DIAMOND_ENTROPY_JOBS", raising=False)
        code = run_cli(["entropy", "--kappa", "1", "--epsilon", "0.5"])
        assert code == 0
        assert "jobs" not in json.loads(capsys.readouterr().out)["config"]

    @pytest.mark.parametrize("command", [
        ["entropy", "--kappa", "1", "--epsilon", "0.5"],
        ["sweep", "--kappa", "1", "--eps-grid", "0.5:0.01:6log", "--grid-size", "256"],
    ])
    def test_env_variable_leaves_stdout_unchanged(self, monkeypatch, capsys, command):
        monkeypatch.delenv("DIAMOND_ENTROPY_JOBS", raising=False)
        assert run_cli(command) == 0
        unset = capsys.readouterr().out
        monkeypatch.setenv("DIAMOND_ENTROPY_JOBS", "abc")
        assert run_cli(command) == 0
        assert capsys.readouterr().out == unset

    @pytest.mark.parametrize("command", [
        ["kernel-dump", "--epsilon", "0.5", "--u-count", "3"],
        ["verify", "--trials", "5", "--dims", "4"],
        ["diag", "offdiag", "--alpha-grid", "10,31.6,100", "--grid-size", "128"],
    ])
    def test_jobs_flag_only_on_entropy_and_sweep(self, command):
        assert run_cli([*command, "--jobs", "1"]) == 2

    @pytest.mark.parametrize("command", [
        ["verify", "--trials", "5", "--dims", "4"],
        ["kernel-dump", "--epsilon", "0.5", "--u-count", "3"],
    ])
    def test_env_ignored_without_workers(self, monkeypatch, capsys, command):
        monkeypatch.setenv("DIAMOND_ENTROPY_JOBS", "abc")
        assert run_cli(command) == 0
        assert "jobs" not in json.loads(capsys.readouterr().out)["config"]


class TestEntryPoint:
    def test_console_script_runs(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "diamond_entropy.cli", "--version"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0
        assert diamond_entropy.__version__ in proc.stdout


class TestImportGraph:
    def test_no_scipy_module_loaded(self):
        # scipy is a test-only reference: the eigensolve calls numpy's
        # bundled LAPACK and the Bessel data are series, so no subcommand
        # imports any scipy module. Every Gauss-Legendre rule comes from
        # quadrature._legendre_rule, built on first use, never from
        # numpy's leggauss.
        script = textwrap.dedent("""
            import contextlib, io, sys
            import numpy.polynomial.legendre

            def refuse(*args, **kwargs):
                raise AssertionError("numpy leggauss called")

            numpy.polynomial.legendre.leggauss = refuse
            import diamond_entropy.cli as cli
            from diamond_entropy import RenyiOrder, entropy_integral
            from diamond_entropy.quadrature import _legendre_rule
            assert _legendre_rule.cache_info().currsize == 0
            assert abs(entropy_integral(RenyiOrder(2.0)) - 0.25) < 1e-13
            commands = [
                ["entropy", "--kappa", "1", "--epsilon", "0.5", "--grid-size", "128",
                 "--jobs", "1"],
                # m r > 2 on most separations: the far-field Bessel series runs
                ["entropy", "--kappa", "1", "--mass", "20", "--epsilon", "0.5",
                 "--grid-size", "256"],
                ["sweep", "--kappa", "1", "--eps-grid", "0.5:0.01:6log", "--grid-size", "256",
                 "--jobs", "2"],
                ["kernel-dump", "--mass", "20", "--epsilon", "0.5", "--u-count", "11"],
                ["diag", "offdiag", "--alpha-grid", "10,31.6,100",
                 "--grid-size", "128"],
                ["diag", "log-growth", "--q", "0.25", "--alpha-grid", "10,1000"],
                ["verify", "--trials", "5", "--dims", "4"],
            ]
            for command in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(command) == 0, command
                loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
                print(command[0], " ".join(loaded))
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        env.pop("DIAMOND_ENTROPY_JOBS", None)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["entropy", "entropy", "sweep", "kernel-dump", "diag",
                                       "diag", "verify"]


    def test_entropy_and_sweep_leave_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma (about 15 ms) on first use; the bulk
        # term's panel edges are deduplicated without it
        script = textwrap.dedent("""
            import contextlib, io, json, sys
            import diamond_entropy.cli as cli
            commands = [
                ["entropy", "--kappa", "1", "--epsilon", "0.5", "--grid-size", "256"],
                ["sweep", "--kappa", "1", "--eps-grid", "0.5:0.01:6log", "--grid-size", "1024",
                 "--jobs", "1"],
            ]
            for command in commands:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert cli.main(command) == 0, command
                doc = json.loads(out.getvalue())
                points = [doc["result"]] if "result" in doc else doc["points"]
                assert all(p["converged"] for p in points), command
                assert "numpy.ma" not in sys.modules, command
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestBlasThreads:
    """No output at a power-of-two grid size depends on the BLAS thread count
    the process starts with."""

    def _run(self, threads: str, command: list[str]) -> str:
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "diamond_entropy.cli", *command],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("command", [
        ["entropy", "--kappa", "1", "--mass", "0", "--epsilon", "0.01", "--grid-size", "1024"],
        ["entropy", "--kappa", "1", "--mass", "1", "--epsilon", "0.01", "--grid-size", "1024"],
        # one worker: neighbouring points share a buffer, whose two triangles
        # are solved at once where the process may use two CPUs
        ["sweep", "--kappa", "1", "--mass", "0", "--eps-grid", "0.5:0.01:6log", "--jobs", "1"],
        # two workers, each solving on its share of the CPUs
        ["sweep", "--kappa", "1", "--mass", "0", "--eps-grid", "0.5:0.01:6log", "--jobs", "2"],
    ], ids=["0", "1", "sweep-0", "sweep-0-jobs-2"])
    def test_same_stdout_on_one_and_two_threads(self, command):
        # the two-stage solve gives the same bits on one thread as on two
        # where N is a power of two, as on every ladder rung here
        assert self._run("1", command) == self._run("2", command)


def _same_value(cell: str, value) -> bool:
    """A CSV cell read back against the JSON value of the same field."""
    if isinstance(value, bool):
        return cell == str(value).lower()
    if isinstance(value, str):
        return cell == value
    return type(value)(cell) == value  # 17 significant digits round-trip a float


class TestOutputWriter:
    """Each subcommand writes one document, and both output formats of one
    configuration carry the same numbers."""

    def _both(self, capsys, command):
        """The JSON document, the CSV rows and the CSV `#` lines of command; the
        whole of stdout must be the JSON document in its one layout, and every
        CSV line after the `#` lines and the header must be a row as wide as
        the header."""
        assert run_cli([*command, "--output-format", "json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        # sorted keys, two-space indent, one closing newline
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert run_cli([*command, "--output-format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        comments = [line for line in lines if line.startswith("#")]
        assert lines[:len(comments)] == comments
        assert comments[0] == f"# version: {diamond_entropy.__version__}"
        config = json.loads(comments[1].removeprefix("# config: "))
        assert config == {**doc["config"], "output-format": "csv"}
        header = lines[len(comments)].split(",")
        rows = [dict(zip(header, line.split(","), strict=True))
                for line in lines[len(comments) + 1:]]
        return doc, rows, comments

    def _assert_same(self, records, rows):
        assert len(records) == len(rows) > 0
        for record, row in zip(records, rows):
            assert set(record) == set(row)
            for key, value in record.items():
                assert _same_value(row[key], value), (key, row[key], value)

    def test_entropy(self, capsys):
        doc, rows, _ = self._both(capsys, ["entropy", "--kappa", "2", "--mass", "1",
                                           "--epsilon", "0.5", "--grid-size", "128"])
        result = dict(doc["result"])
        result.update(result.pop("params"))
        self._assert_same([result], rows)
        assert list(rows[0]) == ["kappa", "mass", "epsilon", "lambda", "n", "truncated_trace",
                                 "subtraction_trace", "entropy", "clamp_count", "converged"]

    def test_sweep(self, capsys):
        doc, rows, comments = self._both(capsys, ["sweep", "--kappa", "1", "--eps-grid",
                                                  "0.5:0.01:6log", "--grid-size", "256",
                                                  "--jobs", "1"])
        self._assert_same(doc["points"], rows)
        assert len(comments) == 3
        assert json.loads(comments[2].removeprefix("# fit: ")) == doc["fit"]

    def test_kernel_dump(self, capsys):
        doc, rows, _ = self._both(capsys, ["kernel-dump", "--mass", "1", "--epsilon", "0.5",
                                           "--u-max", "2", "--u-count", "5"])
        self._assert_same(doc["kernel"], rows)
        assert [row["im12"] for row in rows] == ["0"] * 5

    def test_verify(self, capsys):
        doc, rows, _ = self._both(capsys, ["verify", "--trials", "3", "--dims", "4"])
        self._assert_same(doc["reports"], rows)

    @pytest.mark.parametrize("command, columns", [
        (["offdiag", "--alpha-grid", "10,31.6", "--grid-size", "128"],
         {"alpha": "alpha_grid", "offdiag_ratio": "offdiag_ratios",
          "sup_deviation": "sup_deviations"}),
        (["log-growth", "--alpha-grid", "100,1000,10000",
          "--box-grid-size", "512"],
         {"alpha": "alpha_grid", "logq_norm": "logq_norms",
          "ratio_to_log_alpha": "ratios_to_log_alpha"}),
    ])
    def test_diag(self, capsys, command, columns):
        doc, rows, _ = self._both(capsys, ["diag", *command])
        # the configuration holds the flags of this type and no other
        read = {"offdiag": {"kappa", "grid-size"},
                "log-growth": {"q", "box-half-width", "box-grid-size", "l0"}}[command[0]]
        assert set(doc["config"]) == {"command", "diag-type", "mass", "lam", "alpha-grid",
                                      "output-format", "output-path", *read}
        diagnostics = doc["diagnostics"]
        assert set(diagnostics) == set(columns.values())
        records = [{name: diagnostics[key][i] for name, key in columns.items()}
                   for i in range(len(diagnostics["alpha_grid"]))]
        self._assert_same(records, rows)
        assert list(rows[0]) == list(columns)


class TestReadmeExamples:
    def test_every_cli_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = [
            line for line in readme.replace("\\\n", " ").splitlines()
            if line.startswith("diamond-entropy ")
        ]
        assert len(commands) >= 7
        parser = build_parser()
        for line in commands:
            args = parser.parse_args(shlex.split(line)[1:])
            assert args.command in line
