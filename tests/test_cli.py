"""Command-line behavior: exit codes, output files, and verification
reporting, all exercised in-process through main(argv)."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import mef.cli
import mef.filter
from mef import CSV_HEADER, DEFAULTS, XI_ORIGIN, DiscretizedProblem
from mef.cli import (
    EXIT_CONFIG,
    EXIT_FAILED,
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


def row_statuses(captured: str) -> dict[str, str]:
    """PASS or FAIL of each row check printed, and of the overall line."""
    return {line.split(":")[0]: line.split()[-1] for line in captured.splitlines()
            if line.endswith(("PASS", "FAIL"))}


def fresh_process(code: str, cwd=None) -> subprocess.CompletedProcess:
    """Run the Python source code in a new interpreter that imports mef
    from this checkout's src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, timeout=60)


def test_importing_the_cli_leaves_scipy_unloaded():
    code = "import sys, mef.cli; sys.exit('scipy' in sys.modules)"
    assert fresh_process(code).returncode == 0


def test_check_leaves_scipy_unloaded(tmp_path):
    # The KKT solve is numpy only. The script's exit code reports the
    # module; check's own (1, a failing row at this dt) is not the point.
    code = ("import sys; from mef.cli import main; main(['check', '--dt', '5e-3']); "
            "sys.exit('scipy' in sys.modules)")
    proc = fresh_process(code, tmp_path)
    assert proc.returncode == 0
    assert b"gradient_agreement_rel" in proc.stdout


def test_simulate_leaves_the_verifier_unloaded(tmp_path):
    # Only check loads mef.bruteforce; a simulate never needs it.
    code = ("import sys; from mef.cli import main; "
            "main(['simulate', '--set', 'scenario.duration=1', '--out', '.']); "
            "sys.exit('mef.bruteforce' in sys.modules)")
    proc = fresh_process(code, tmp_path)
    assert proc.returncode == 0
    assert b"final_error_rad" in proc.stdout


def test_the_verifier_names_load_it_on_first_use():
    code = ("import sys, mef\n"
            "assert 'mef.bruteforce' not in sys.modules\n"
            "from mef import DiscretizedProblem, value_at\n"
            "assert value_at is sys.modules['mef.bruteforce'].value_at\n"
            "assert mef.DiscretizedProblem is DiscretizedProblem\n")
    proc = fresh_process(code)
    assert proc.returncode == 0, proc.stderr


def test_check_runs_where_scipy_cannot_be_imported(tmp_path):
    # scipy is a test dependency only: check must pass in an interpreter
    # whose import system refuses it.
    code = ("import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ModuleNotFoundError(name)\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "from mef.cli import main\n"
            "sys.exit(main(['check', '--dt', '1e-3']))\n")
    proc = fresh_process(code, tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert stdout_value(proc.stdout.decode(), "overall") == "PASS"


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["sweep", "--param", "seed", "--values", "1,2", "--jobs", "1"],
], ids=["simulate", "serial_sweep"])
def test_no_pool_leaves_multiprocessing_unloaded(argv, tmp_path):
    # Only a sweep with --jobs > 1 forks, and only it imports the pool. The
    # script's exit code reports the command's own and the two modules.
    argv = argv + ["--set", "scenario.duration=1"]
    code = ("import sys; from mef.cli import main; "
            f"rc = main({argv!r}); "
            "sys.exit(rc + 2 * ('concurrent.futures' in sys.modules) "
            "+ 4 * ('multiprocessing' in sys.modules))")
    proc = fresh_process(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("*.csv"))


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
            "--set", "observer.hessian_scale=0",
        ])
        assert code == EXIT_SINGULAR
        err = capsys.readouterr().err
        assert "observer stopped: epoch" in err
        assert "(P is singular)" in err

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
        assert out.count("PASS") == 4  # three rows plus the overall line
        assert stdout_value(out, "overall") == "PASS"

    def test_degenerate_solve_exits_3_with_its_epoch(self, capsys):
        # With a zero prior, P is zero at the first substep.
        code = main(["check", "--set", "check.hessian_scale=0"])
        assert code == EXIT_SINGULAR
        err = capsys.readouterr().err
        assert "observer stopped: epoch 0 (t=0 s)" in err
        assert "(P is singular)" in err

    def test_overflowing_correction_norm_exits_3(self, tmp_path):
        # |delta|^2 overflows at the first substep, and the step cap
        # delta_step_cap / |delta| is then 0. Run in a fresh process, whose
        # timeout fails the test if the substep loop does not end.
        code = ("import sys; from mef.cli import main; "
                "sys.exit(main(['check', '--set', 'check.vector_sigma_true=1e150']))")
        proc = fresh_process(code, tmp_path)
        assert proc.returncode == EXIT_SINGULAR
        assert (b"observer stopped: epoch 0 (t=0 s): correction norm overflows"
                in proc.stderr)

    def test_sabotaged_correction_fails_critical_point(self, monkeypatch, capsys):
        real = mef.filter.correction_delta
        monkeypatch.setattr(mef.filter, "correction_delta", lambda *args: -real(*args))
        code = main(["check"])
        assert code == EXIT_FAILED
        out = capsys.readouterr().out
        # Each row's verdict is exact; its value is held to 1e-12 relative.
        # The agreement rows are differences of nearly equal numbers, so a
        # change of the verifier's round-off (1e-13 relative) moves them by
        # up to about 1e-7 relative: a new solver must re-pin them.
        expected = {
            "critical_point_residual": (0.048761256437215676, "(threshold 1e-05) FAIL"),
            "gradient_agreement_rel": (1.9858742716476529e-05, "(threshold 0.0001) PASS"),
            "hessian_agreement_rel": (3.6880146963294945e-07, "(threshold 0.0001) PASS"),
        }
        for row, (value, verdict) in expected.items():
            printed, rest = stdout_value(out, row).split(" ", 1)
            assert rest == verdict
            assert float(printed) == pytest.approx(value, rel=1e-12, abs=0)
        assert stdout_value(out, "overall") == "FAIL"

    def test_coarse_step_fails_gradient_agreement_only(self, capsys):
        # Euler error in the gradient grows linearly with dt: 9.50e-5 at
        # dt = 2e-3 passes the 1e-4 threshold, 2.37e-4 at 5e-3 does not.
        assert main(["check", "--dt", "2e-3"]) == EXIT_OK
        assert row_statuses(capsys.readouterr().out)["overall"] == "PASS"
        assert main(["check", "--dt", "5e-3"]) == EXIT_FAILED
        out = capsys.readouterr().out
        assert float(stdout_value(out, "gradient_agreement_rel").split()[0]) > 1e-4
        assert row_statuses(out) == {
            "critical_point_residual": "PASS",
            "gradient_agreement_rel": "FAIL",
            "hessian_agreement_rel": "PASS",
            "overall": "FAIL",
        }

    @pytest.mark.parametrize("rate, bias, row", [
        # Along the normal direction, H's bias leaves the correction, and
        # so the other two rows, untouched.
        ("hessian_rate", 10.0 * np.outer(XI_ORIGIN, XI_ORIGIN), "hessian_agreement_rel"),
        ("gradient_rate", np.full(4, 1e-4), "gradient_agreement_rel"),
    ])
    def test_biased_rate_fails_its_agreement_row(self, rate, bias, row, monkeypatch, capsys):
        real = getattr(mef.filter, rate)
        monkeypatch.setattr(mef.filter, rate, lambda *args: real(*args) + bias)
        code = main(["check", "--set", "check.duration=0.3"])
        assert code == EXIT_FAILED
        assert row_statuses(capsys.readouterr().out) == {
            "critical_point_residual": "PASS",
            "gradient_agreement_rel": "PASS",
            "hessian_agreement_rel": "PASS",
            "overall": "FAIL",
        } | {row: "FAIL"}

    def test_every_row_comes_from_one_batch_of_solves(self, monkeypatch, capsys):
        columns = []
        real_solve = DiscretizedProblem._solve

        def solve(self, terminal):
            columns.append(terminal.shape[1])
            return real_solve(self, terminal)

        monkeypatch.setattr(DiscretizedProblem, "_solve", solve)
        assert main(["check", "--set", "check.duration=0.3"]) == EXIT_OK
        assert columns == [len(XI_ORIGIN) + 1]

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

    def test_check_key_exits_2(self, tmp_path, capsys):
        # simulate reads no check.* key: every run of such a sweep would be
        # the same run.
        code = main([
            "sweep", "--out", str(tmp_path), "--set", "scenario.duration=1",
            "--param", "check.dt", "--values", "1e-3,5e-3",
        ])
        assert code == EXIT_CONFIG
        assert "'check.dt' is not a sweepable numeric key" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_2_without_csv(self, jobs, tmp_path, capsys):
        code = main([
            "sweep", "--out", str(tmp_path), "--set", "scenario.duration=1",
            "--param", "seed", "--values", "1,2", "--jobs", jobs,
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: --jobs {jobs}: a sweep needs at least 1 job\n"
        assert list(tmp_path.iterdir()) == []

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

    def test_pool_never_outnumbers_the_values(self, tmp_path, monkeypatch):
        # A real pool forks every worker up front, so only a stand-in may
        # be asked for this many.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, payloads):
                return map(func, payloads)

        monkeypatch.setattr(mef.cli, "ProcessPoolExecutor", RecordingPool)
        code = main([
            "sweep", "--set", "scenario.duration=1", "--out", str(tmp_path),
            "--param", "observer.initial_error_rad", "--values", "0.2,0.4",
            "--jobs", "10000",
        ])
        assert code == EXIT_OK
        assert sizes == [2]

    def test_failing_run_exits_2_without_aggregate(self, tmp_path, capsys):
        code = main([
            "sweep", "--out", str(tmp_path),
            "--param", "scenario.duration", "--values", "1.0,0.25",
        ])
        assert code == EXIT_CONFIG
        assert "failed" in capsys.readouterr().err
        assert not (tmp_path / "run_scenario_duration_sweep.csv").exists()


    def test_unexpected_worker_error_names_the_value(self, tmp_path, capsys, monkeypatch):
        real_run = mef.cli.run

        def run(config):
            if config.scenario.duration == 0.5:
                raise ZeroDivisionError("injected")
            return real_run(config)

        monkeypatch.setattr(mef.cli, "run", run)
        code = main([
            "sweep", "--out", str(tmp_path), "--jobs", "1",
            "--param", "scenario.duration", "--values", "0.2,0.5,0.3",
        ])
        assert code == EXIT_FAILED
        err = capsys.readouterr().err
        assert "run scenario.duration=0.5 failed: ZeroDivisionError: injected" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run_scenario_duration_sweep.csv").exists()


class TestConfigBoundary:
    @pytest.mark.parametrize("argv", [
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
        # H_0 is scale^2 times a projector: the square overflows.
        *[pytest.param([command, "--config", "noisy", *args], id=f"{command}_hessian_scale_1e200")
          for command, args in (("simulate", ["--set", "observer.hessian_scale=1e200"]),
                                ("sweep", ["--param", "observer.hessian_scale",
                                           "--values", "1e200"]))],
        pytest.param(["check", "--set", "check.hessian_scale=1e200"], id="check_hessian_scale_1e200"),
        # numpy's SeedSequence refuses a negative seed, and a noiseless run
        # never builds one: every command must refuse it up front.
        pytest.param(["simulate", "--config", "noisy", "--seed", "-1"], id="simulate_noisy_seed_-1"),
        pytest.param(["simulate", "--seed", "-1"], id="simulate_noiseless_seed_-1"),
        pytest.param(["check", "--seed", "-1"], id="check_seed_-1"),
        pytest.param(["sweep", "--config", "noisy", "--param", "seed", "--values", "-1"],
                     id="sweep_seed_-1"),
    ])
    def test_bad_input_exits_2_without_csv(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("argv, key", [
        *[pytest.param(["simulate", "--config", "noisy", "--set", f"{key}={value}"], key,
                       id=f"{key}={value}")
          for key, value in (("noise.gyro_sigma", "1e200"), ("noise.vector_sigma", "1e200"),
                             ("noise.gyro_sigma", "1e-200"), ("noise.gyro_sigma", "1e-160"),
                             ("noise.vector_sigma", "1e-160"), ("noise.vector_sigma", "1e-200"))],
        *[pytest.param(["check", "--set", f"{key}=1e200"], key, id=f"{key}=1e200")
          for key in ("check.gyro_sigma_true", "check.vector_sigma_true")],
    ])
    def test_noise_sigma_without_finite_gains_names_its_key(self, argv, key, tmp_path, capsys):
        # Squares that overflow, nonzero squares with no finite inverse, and
        # a vector sigma whose square underflows to 0, which the output
        # weight would read as no weight.
        code = main(argv + ["--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("command, key", [
        ("simulate", "noise.gyro_sigma"), ("simulate", "noise.vector_sigma"),
        ("check", "check.gyro_sigma_true"), ("check", "check.vector_sigma_true"),
    ])
    def test_a_negative_sigma_names_its_key(self, command, key, tmp_path, capsys):
        code = main([command, "--set", f"{key}=-0.5", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key}: -0.5 is negative")
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("argv, key", [
        (["simulate", "--set", "observer.hessian_scale=-1"], "observer.hessian_scale"),
        (["sweep", "--param", "observer.hessian_scale", "--values", "-1"],
         "observer.hessian_scale"),
        (["check", "--set", "check.hessian_scale=-30"], "check.hessian_scale"),
    ], ids=["simulate", "sweep", "check"])
    def test_a_negative_hessian_scale_names_its_key(self, argv, key, tmp_path, capsys):
        # H_0 is scale^2 times a projector: a negative scale would act as
        # its absolute value.
        code = main(argv + ["--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"{key}: -" in err and "is negative" in err
        assert list(tmp_path.rglob("*.csv")) == []

    # init accepts rounding-level asymmetry at any scale (4e-10 at
    # max|H_0| = 1e8); explicit Euler on H N H then diverges within 10 epochs.
    @pytest.mark.parametrize("argv", [
        *[pytest.param(["simulate", "--set", f"observer.hessian_scale={v}"],
                       id=f"simulate_hessian_scale_{v}") for v in ("1e4", "1e100")],
        pytest.param(["sweep", "--param", "observer.hessian_scale", "--values", "1e100"],
                     id="sweep_hessian_scale_1e100"),
    ])
    def test_huge_prior_is_accepted_and_diverges(self, argv, tmp_path, capsys):
        code = main([argv[0], "--config", "noisy", *argv[1:], "--out", str(tmp_path)])
        assert code == EXIT_SINGULAR
        err = capsys.readouterr().err
        assert "observer stopped: " in err
        assert "observer state is not finite" in err
        assert "singular" not in err
        assert "config error" not in err
        assert list(tmp_path.rglob("*.csv")) == []


@pytest.mark.parametrize("argv, line", [
    (["simulate", "--set", "observer.hessian_scale=1e3"],
     "observer stopped: epoch 9 (t=0.9 s): correction solve residual nan exceeds 1.000e-08"),
    (["check", "--set", "check.vector_sigma_true=1e150"],
     "observer stopped: epoch 0 (t=0 s): correction norm overflows"),
    # Both runs are made in forked pool workers.
    (["sweep", "--config", "noisy", "--param", "observer.hessian_scale",
      "--values", "1e100,1e3", "--jobs", "2"],
     "observer stopped: run observer.hessian_scale=1e100 failed: epoch 1"),
], ids=["simulate", "check", "sweep_pool"])
def test_a_stopped_observer_prints_only_its_line(argv, line, tmp_path):
    # Each overflows on its way to the guard that stops it; no numpy
    # warning may come before the guard's line. Run in a fresh process,
    # as pytest would collect the warnings instead.
    code = f"import sys; from mef.cli import main; sys.exit(main({argv!r}))"
    proc = fresh_process(code, tmp_path)
    assert proc.returncode == EXIT_SINGULAR
    err = proc.stderr.decode()
    assert err.startswith(line) and err.count("\n") == 1 and err.endswith("\n")
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
