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
from diamond_entropy import asymptotics, cli, discretization, entropy_pipeline
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

    def test_bad_grid_spec_exits_2(self, capsys):
        code = run_cli(
            ["sweep", "--kappa", "1", "--eps-grid", "nonsense"]
        )
        assert code == 2

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

    def test_bad_jobs_exits_2(self, capsys):
        code = run_cli(["entropy", "--kappa", "1", "--epsilon", "0.1", "--jobs", "0"])
        assert code == 2

    @pytest.mark.parametrize("option", ["--tail-tol", "--seed"])
    def test_removed_options_exit_2(self, option):
        code = run_cli(["entropy", "--kappa", "1", "--epsilon", "0.1", option, "1"])
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["entropy", "--epsilon", "0.01"],
        ["sweep", "--eps-grid", "0.1:0.002:8log", "--jobs", "2"],
    ])
    def test_grid_size_beyond_memory_exits_2_at_once(self, monkeypatch, capsys, command):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the memory preflight")

        for module, name in [(entropy_pipeline, "subtraction_trace"),
                             (entropy_pipeline, "build_grid"),
                             (asymptotics, "_sweep_point")]:
            monkeypatch.setattr(module, name, no_work)
        tracemalloc.start()
        try:
            code = run_cli([*command, "--kappa", "1", "--grid-size", "1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        err = capsys.readouterr().err
        assert "bytes of eigensolver buffers" in err and "largest grid-size cap that fits" in err

    def test_sweep_preflight_counts_workers(self, monkeypatch, capsys):
        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: 3 * 8 * 4096**2)
        monkeypatch.setattr(asymptotics, "_sweep_point", None)  # never reached
        code = run_cli(["sweep", "--kappa", "1", "--eps-grid", "0.1:0.002:8log",
                        "--grid-size", "4096", "--jobs", "4"])
        assert code == 2
        assert "4 process(es)" in capsys.readouterr().err

    def test_offdiag_grid_size_beyond_memory_exits_2_at_once(self, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the memory preflight")

        monkeypatch.setattr(discretization, "physical_memory_bytes", lambda: 8 * 1024**2)
        monkeypatch.setattr(asymptotics, "matched_grid_entropy", no_work)
        monkeypatch.setattr(asymptotics, "_high_low_sup_deviation", no_work)
        code = run_cli(["diag", "--diag-type", "offdiag", "--alpha-grid", "10,31.6,100",
                        "--grid-size", "4096"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bytes of eigensolver buffers" in captured.err

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

    @pytest.mark.parametrize("kappa", ["0.02", "20", "100"])
    def test_extreme_orders_finite(self, capsys, kappa):
        code = run_cli(["entropy", "--kappa", kappa, "--epsilon", "0.1",
                        "--grid-size", "256", "--jobs", "1"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert np.isfinite(result["entropy"])
        assert np.isfinite(result["subtraction_trace"])

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

    def test_csv_with_fit_on_stdout(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--kappa", "1", "--eps-grid", "0.5:0.01:6log",
             "--output-format", "csv", "--output-path", str(out), "--jobs", "1"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[2] == "epsilon,ln_inv_eps,entropy,n,converged"
        assert len(lines) == 3 + 6
        fit = json.loads(capsys.readouterr().out)
        assert "slope" in fit["fit"]

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
        assert out.splitlines()[3 + 9] == "0.002,6.2146080984221914,nan,256,false"


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


class TestVerifyCommand:
    def test_exit_zero_and_reports(self, capsys):
        code = run_cli(["verify", "--trials", "50", "--seed", "42"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        reports = doc["reports"]
        assert {r["dim"] for r in reports} == {4, 8, 16}
        assert all(r["passed"] for r in reports)

    def test_failure_exits_4(self, monkeypatch, capsys):
        def fake_verify(dim, trials, seed):
            return [SchattenReport("rigged", trials, 1.0, seed)]

        monkeypatch.setattr("diamond_entropy.cli.verify_inequalities", fake_verify)
        monkeypatch.setattr("diamond_entropy.cli.verify_commutator_lemma", lambda *a: [])
        code = run_cli(["verify", "--trials", "5", "--dims", "4"])
        assert code == 4


class TestDiagCommand:
    def test_offdiag_json(self, capsys):
        code = run_cli(
            ["diag", "--diag-type", "offdiag", "--mass", "1", "--kappa", "1",
             "--alpha-grid", "10,31.6,100", "--grid-size", "256"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        d = doc["diagnostics"]
        assert len(d["alpha_grid"]) == 3
        assert len(d["offdiag_ratios"]) == 3
        assert len(d["sup_deviations"]) == 3

    def test_log_growth_json(self, capsys):
        code = run_cli(
            ["diag", "--diag-type", "log-growth", "--q", "0.5",
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
            ["diag", "--diag-type", diag_type, "--alpha-grid", "10,100,1000", *extra,
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
        code = run_cli(["diag", "--diag-type", "log-growth", "--mass", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "128" in captured.err

    @pytest.mark.parametrize("width", ["0", "-8"])
    def test_log_growth_nonpositive_box_exits_2(self, capsys, width):
        code = run_cli(["diag", "--diag-type", "log-growth", "--mass", "0",
                        "--box-half-width", width])
        assert code == 2
        assert "box_half_width must be positive" in capsys.readouterr().err

    def test_log_growth_massless_wide_box_runs(self, capsys):
        code = run_cli(
            ["diag", "--diag-type", "log-growth", "--mass", "0", "--q", "0.5",
             "--alpha-grid", "100,1000,10000", "--box-half-width", "128"]
        )
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["diagnostics"]["logq_norms"]) == 3

    def test_log_growth_negative_mass_exits_2(self, capsys):
        code = run_cli(
            ["diag", "--diag-type", "log-growth", "--mass", "-1"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mass" in captured.err


class TestJobsResolution:
    def test_env_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("DIAMOND_ENTROPY_JOBS", "3")
        code = run_cli(["entropy", "--kappa", "1", "--epsilon", "0.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["jobs"] == 3

    def test_no_flag_no_env_records_no_jobs(self, monkeypatch, capsys):
        monkeypatch.delenv("DIAMOND_ENTROPY_JOBS", raising=False)
        code = run_cli(["entropy", "--kappa", "1", "--epsilon", "0.5"])
        assert code == 0
        assert "jobs" not in json.loads(capsys.readouterr().out)["config"]

    @pytest.mark.parametrize("value", ["abc", "0", "-4"])
    def test_bad_env_exits_2(self, monkeypatch, capsys, value):
        monkeypatch.setenv("DIAMOND_ENTROPY_JOBS", value)
        code = run_cli(["entropy", "--kappa", "1", "--epsilon", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "DIAMOND_ENTROPY_JOBS" in captured.err

    def test_flag_overrides_env(self, monkeypatch, capsys):
        monkeypatch.setenv("DIAMOND_ENTROPY_JOBS", "3")
        code = run_cli(["entropy", "--kappa", "1", "--epsilon", "0.5", "--jobs", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["jobs"] == 2

    @pytest.mark.parametrize("command", [
        ["kernel-dump", "--epsilon", "0.5", "--u-count", "3"],
        ["verify", "--trials", "5", "--dims", "4"],
        ["diag", "--diag-type", "offdiag", "--alpha-grid", "10,31.6,100", "--grid-size", "128"],
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
    def test_no_integrate_optimize_or_sparse_loaded(self):
        # the pipeline needs scipy.linalg and scipy.special only; each of these
        # subpackages costs a fresh CLI process import time and memory. Its
        # Gauss-Legendre rules all come from discretization._legendre_rule,
        # built on first use, never from numpy's leggauss.
        script = textwrap.dedent("""
            import contextlib, io, sys
            import numpy.polynomial.legendre

            def refuse(*args, **kwargs):
                raise AssertionError("numpy leggauss called")

            numpy.polynomial.legendre.leggauss = refuse
            import diamond_entropy.cli as cli
            from diamond_entropy import RenyiOrder, entropy_integral
            from diamond_entropy.discretization import _legendre_rule
            assert _legendre_rule.cache_info().currsize == 0
            assert abs(entropy_integral(RenyiOrder(2.0)) - 0.25) < 1e-13
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["entropy", "--kappa", "1", "--epsilon", "0.5",
                                 "--grid-size", "128", "--jobs", "1"]) == 0
                assert cli.main(["sweep", "--kappa", "1", "--eps-grid", "0.5:0.01:6log",
                                 "--grid-size", "256", "--jobs", "2"]) == 0
            heavy = [m for m in sys.modules
                     if m.split(".")[:2] in (["scipy", "integrate"], ["scipy", "optimize"],
                                             ["scipy", "sparse"])]
            print(" ".join(sorted(heavy)))
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        env.pop("DIAMOND_ENTROPY_JOBS", None)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []


def _same_value(cell: str, value) -> bool:
    """A CSV cell read back against the JSON value of the same field."""
    if isinstance(value, bool):
        return cell == str(value).lower()
    if isinstance(value, str):
        return cell == value
    return type(value)(cell) == value  # 17 significant digits round-trip a float


class TestOutputWriter:
    """Both output formats of one configuration carry the same numbers."""

    def _both(self, capsys, command):
        assert run_cli([*command, "--output-format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert run_cli([*command, "--output-format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"# version: {diamond_entropy.__version__}"
        config = json.loads(lines[1].removeprefix("# config: "))
        assert config == {**doc["config"], "output-format": "csv"}
        header = lines[2].split(",")
        rows = []
        for line in lines[3:]:
            if line == "{":  # sweep's fit summary follows its rows
                break
            rows.append(dict(zip(header, line.split(","), strict=True)))
        return doc, rows, lines

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
        doc, rows, lines = self._both(capsys, ["sweep", "--kappa", "1", "--eps-grid",
                                               "0.5:0.01:6log", "--grid-size", "256",
                                               "--jobs", "1"])
        self._assert_same(doc["points"], rows)
        assert json.loads("\n".join(lines[3 + len(rows):]))["fit"] == doc["fit"]

    def test_kernel_dump(self, capsys):
        doc, rows, _ = self._both(capsys, ["kernel-dump", "--mass", "1", "--epsilon", "0.5",
                                           "--u-max", "2", "--u-count", "5"])
        self._assert_same(doc["kernel"], rows)
        assert [row["im12"] for row in rows] == ["0"] * 5

    def test_verify(self, capsys):
        doc, rows, _ = self._both(capsys, ["verify", "--trials", "3", "--dims", "4"])
        self._assert_same(doc["reports"], rows)

    @pytest.mark.parametrize("command, columns", [
        (["--diag-type", "offdiag", "--alpha-grid", "10,31.6", "--grid-size", "128"],
         {"alpha": "alpha_grid", "offdiag_ratio": "offdiag_ratios",
          "sup_deviation": "sup_deviations"}),
        (["--diag-type", "log-growth", "--alpha-grid", "100,1000,10000",
          "--box-grid-size", "512"],
         {"alpha": "alpha_grid", "logq_norm": "logq_norms",
          "ratio_to_log_alpha": "ratios_to_log_alpha"}),
    ])
    def test_diag(self, capsys, command, columns):
        doc, rows, _ = self._both(capsys, ["diag", *command])
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
