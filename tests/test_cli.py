"""Command-line behavior: exit codes, output files, and verification
reporting, all exercised in-process through main(argv)."""

import os
import re

import numpy as np
import pytest

from mef import CSV_HEADER, DEFAULTS
from mef.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SINGULAR,
    main,
)


def read(path: str) -> str:
    with open(path, "r") as fh:
        return fh.read()


def stdout_value(captured: str, key: str) -> str:
    match = re.search(rf"^{re.escape(key)}: (.+)$", captured, re.MULTILINE)
    assert match is not None, f"{key!r} missing from output:\n{captured}"
    return match.group(1)


class TestSimulate:
    def test_bundled_noiseless_short_run(self, tmp_path, capsys):
        code = main([
            "simulate", "--config", "noiseless", "--out", str(tmp_path),
            "--set", "scenario.duration=2",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        csv_path = str(tmp_path / "noiseless.csv")
        assert stdout_value(out, "csv") == csv_path
        assert stdout_value(out, "epochs") == "21"
        lines = read(csv_path).splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 22

    def test_bundled_name_with_extension(self, tmp_path):
        code = main([
            "simulate", "--config", "noisy.cfg", "--out", str(tmp_path),
            "--set", "scenario.duration=1",
        ])
        assert code == EXIT_OK
        assert (tmp_path / "noisy.csv").exists()

    def test_config_file_path(self, tmp_path, capsys):
        cfg = tmp_path / "mine.cfg"
        cfg.write_text("scenario.duration = 1.0\nobserver.initial_error_rad = 0.3\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert stdout_value(out, "csv") == str(tmp_path / "mine.csv")
        final = float(stdout_value(out, "final_error_rad"))
        assert 0.0 < final < 0.3

    def test_zero_duration_writes_header_only(self, tmp_path, capsys):
        code = main([
            "simulate", "--out", str(tmp_path),
            "--set", "scenario.duration=0",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert stdout_value(out, "epochs") == "0"
        assert read(str(tmp_path / "run.csv")) == CSV_HEADER + "\n"

    def test_unknown_config_source_exits_2(self, tmp_path, capsys):
        code = main([
            "simulate", "--config", "no_such_config", "--out", str(tmp_path),
        ])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_bad_value_exits_2_without_partial_output(self, tmp_path, capsys):
        code = main([
            "simulate", "--out", str(tmp_path),
            "--set", "scenario.duration=fast",
        ])
        assert code == EXIT_CONFIG
        assert "expected a number" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_degenerate_solve_exits_3(self, tmp_path, capsys):
        code = main([
            "simulate", "--config", "noiseless", "--out", str(tmp_path),
            "--set", "scenario.duration=1",
            "--set", "filter.p_solve_tolerance=1e-30",
        ])
        assert code == EXIT_SINGULAR
        err = capsys.readouterr().err
        assert "singular correction solve" in err
        assert "epoch" in err

    def test_identical_seeds_reproduce_bytes(self, tmp_path):
        args = ["simulate", "--config", "noisy", "--set", "scenario.duration=5"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(dir_a)]) == EXIT_OK
        assert main(args + ["--out", str(dir_b)]) == EXIT_OK
        assert read(str(dir_a / "noisy.csv")) == read(str(dir_b / "noisy.csv"))

    def test_seed_flag_changes_noisy_output(self, tmp_path):
        base = ["simulate", "--config", "noisy", "--set", "scenario.duration=5"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(base + ["--out", str(dir_a)]) == EXIT_OK
        assert main(base + ["--out", str(dir_b), "--seed", "99"]) == EXIT_OK
        assert read(str(dir_a / "noisy.csv")) != read(str(dir_b / "noisy.csv"))


class TestCheck:
    def test_default_parameters_pass(self, capsys):
        code = main(["check", "--set", "check.duration=0.3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert stdout_value(out, "steps") == "300"
        assert out.count("PASS") == 5  # four rows plus the overall line
        assert stdout_value(out, "overall") == "PASS"

    def test_degenerate_solve_exits_3_with_its_epoch(self, capsys):
        code = main(["check", "--set", "filter.p_solve_tolerance=1e-30"])
        assert code == EXIT_SINGULAR
        err = capsys.readouterr().err
        assert "singular correction solve" in err
        assert "epoch" in err

    def test_sabotaged_correction_fails_critical_point(self, capsys):
        code = main([
            "check", "--set", "check.duration=0.3", "--sabotage-delta-sign",
        ])
        assert code == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        critical_line = next(
            line for line in out.splitlines()
            if line.startswith("critical_point_residual")
        )
        assert critical_line.endswith("FAIL")
        assert stdout_value(out, "overall") == "FAIL"

    def test_residual_halves_with_dt(self, capsys):
        # Full 1 s horizon: the finite-difference agreement rows stay under
        # their thresholds at both step sizes.
        residuals = {}
        for dt in ("2e-3", "1e-3"):
            code = main(["check", "--dt", dt])
            assert code == EXIT_OK
            out = capsys.readouterr().out
            value = stdout_value(out, "critical_point_residual")
            residuals[dt] = float(value.split()[0])
        ratio = residuals["2e-3"] / residuals["1e-3"]
        assert 1.5 <= ratio <= 2.5

    def test_nonpositive_dt_exits_2(self, capsys):
        code = main(["check", "--dt", "0"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_nonpositive_duration_exits_2(self, capsys):
        code = main(["check", "--set", "check.duration=0"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


class TestSweep:
    def test_unknown_parameter_exits_2(self, tmp_path, capsys):
        code = main([
            "sweep", "--out", str(tmp_path),
            "--param", "scenario.omega", "--values", "1,2",
        ])
        assert code == EXIT_CONFIG
        assert "not a sweepable numeric key" in capsys.readouterr().err

    def test_empty_value_list_exits_2(self, tmp_path, capsys):
        code = main([
            "sweep", "--out", str(tmp_path),
            "--param", "seed", "--values", " , ",
        ])
        assert code == EXIT_CONFIG
        assert "empty sweep value list" in capsys.readouterr().err

    def test_per_value_and_aggregate_outputs(self, tmp_path, capsys):
        code = main([
            "sweep", "--out", str(tmp_path),
            "--set", "scenario.duration=2",
            "--param", "observer.initial_error_rad", "--values", "0.1,0.5",
        ])
        assert code == EXIT_OK
        slug = "observer_initial_error_rad"
        for value in ("0.1", "0.5"):
            lines = read(str(tmp_path / f"run_{slug}_{value}.csv")).splitlines()
            assert lines[0] == CSV_HEADER
            assert len(lines) == 22
        agg = read(str(tmp_path / f"run_{slug}_sweep.csv")).splitlines()
        assert agg[0] == "value,csv,final_error_rad,max_opt_residual,total_substeps"
        assert len(agg) == 3
        # Aggregate rows echo the per-run logs.
        for row, value in zip(agg[1:], ("0.1", "0.5")):
            fields = row.split(",")
            assert fields[0] == value
            last_record = read(fields[1]).splitlines()[-1].split(",")
            assert float(fields[2]) == float(last_record[9])
        out = capsys.readouterr().out
        assert "sweep_summary:" in out

    def test_summary_ignores_a_leftover_fixed_temp_name(self, tmp_path):
        # The summary goes through a unique temp file, so a stale (or
        # concurrently written) "<summary>.tmp" cannot break the sweep.
        slug = "observer_initial_error_rad"
        (tmp_path / f"run_{slug}_sweep.csv.tmp").mkdir()
        code = main([
            "sweep", "--out", str(tmp_path),
            "--set", "scenario.duration=2",
            "--param", "observer.initial_error_rad", "--values", "0.1",
        ])
        assert code == EXIT_OK
        agg = read(str(tmp_path / f"run_{slug}_sweep.csv")).splitlines()
        assert len(agg) == 2

    def test_ten_noisy_seeds_distinct_and_reproducible(self, tmp_path):
        values = ",".join(str(s) for s in range(10))
        args = [
            "sweep", "--config", "noisy", "--set", "scenario.duration=10",
            "--param", "seed", "--values", values,
        ]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(dir_a)]) == EXIT_OK
        assert main(args + ["--out", str(dir_b)]) == EXIT_OK
        contents = [
            read(str(dir_a / f"noisy_seed_{s}.csv")) for s in range(10)
        ]
        assert len(set(contents)) == 10
        for s in range(10):
            assert contents[s] == read(str(dir_b / f"noisy_seed_{s}.csv"))

    def test_initial_error_sweep_all_converge(self, tmp_path, capsys):
        values = "0.3141592653589793,1.5707963267948966,3.110176727053895"
        code = main([
            "sweep", "--config", "noiseless", "--out", str(tmp_path),
            "--param", "observer.initial_error_rad", "--values", values,
        ])
        assert code == EXIT_OK
        agg_path = tmp_path / "noiseless_observer_initial_error_rad_sweep.csv"
        rows = read(str(agg_path)).splitlines()[1:]
        assert len(rows) == 3
        finals = [float(row.split(",")[2]) for row in rows]
        assert all(f < 0.05 for f in finals)

    def test_parallel_matches_serial(self, tmp_path):
        base = [
            "sweep", "--set", "scenario.duration=2",
            "--param", "observer.initial_error_rad", "--values", "0.2,0.8",
        ]
        dir_a, dir_b = tmp_path / "serial", tmp_path / "parallel"
        assert main(base + ["--out", str(dir_a), "--jobs", "1"]) == EXIT_OK
        assert main(base + ["--out", str(dir_b), "--jobs", "2"]) == EXIT_OK
        slug = "observer_initial_error_rad"
        for name in (f"run_{slug}_0.2.csv", f"run_{slug}_0.8.csv"):
            assert read(str(dir_a / name)) == read(str(dir_b / name))

    def test_failing_run_exits_2_without_aggregate(self, tmp_path, capsys):
        code = main([
            "sweep", "--out", str(tmp_path),
            "--param", "scenario.duration", "--values", "1.0,0.25",
        ])
        assert code == EXIT_CONFIG
        assert "failed" in capsys.readouterr().err
        assert not (tmp_path / "run_scenario_duration_sweep.csv").exists()


class TestConfigBoundary:
    @pytest.mark.parametrize("argv", [
        # nan made the P-solve guard vacuous: this run exits 3 without it.
        pytest.param(["simulate", "--set", "scenario.duration=1",
                      "--set", "observer.hessian_scale=0",
                      "--set", "filter.p_solve_tolerance=nan"], id="p_solve_tolerance_nan"),
        pytest.param(["simulate", "--set", "filter.dt_max=nan"], id="dt_max_nan"),
        pytest.param(["simulate", "--set", "observer.hessian_scale=nan"], id="hessian_scale_nan"),
        pytest.param(["simulate", "--set", "scenario.duration=inf"], id="duration_inf"),
        pytest.param(["simulate", "--set", "scenario.q0=nan,0,0,0"], id="q0_nan"),
        pytest.param(["simulate", "--set", "observer.initial_error_rad=0.5",
                      "--set", "observer.initial_error_axis=nan,0,0"], id="error_axis_nan"),
        pytest.param(["simulate", "--set", "noise.gyro_sigma=0"], id="gyro_sigma_0"),
        pytest.param(["sweep", "--set", "scenario.duration=1", "--param", "noise.gyro_sigma",
                      "--values", "0"], id="sweep_gyro_sigma_0"),
        pytest.param(["check", "--dt", "nan"], id="check_dt_nan"),
        pytest.param(["check", "--set", "check.hessian_scale=nan"], id="check_hessian_scale_nan"),
        pytest.param(["simulate", "--config", "."], id="config_is_a_directory"),
    ])
    def test_bad_input_exits_2_without_csv(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []


class TestHelp:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["simulate", "--help"],
        ["check", "--help"],
        ["sweep", "--help"],
    ])
    def test_help_documents_every_config_key(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for key in DEFAULTS:
            assert key in out
        assert "noiseless" in out
        assert "noisy" in out

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
