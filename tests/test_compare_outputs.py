"""tools/compare_outputs.py prints what differs between two stdouts and
how far two CSVs moved, and reports a command that runs past its timeout
as a timeout."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "compare_outputs.py")
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def test_prints_each_differing_line_pair_with_the_relative_difference(capsys):
    here = "steps: 1000\nhessian_agreement_rel: 3.75e-07 (threshold 0.0001) PASS\noverall: PASS"
    there = "steps: 1000\nhessian_agreement_rel: 3.5e-07 (threshold 0.0001) PASS\noverall: FAIL\nx"
    compare_outputs.print_line_differences(here, there)
    assert capsys.readouterr().out.splitlines() == [
        "    here:  hessian_agreement_rel: 3.75e-07 (threshold 0.0001) PASS",
        "    there: hessian_agreement_rel: 3.5e-07 (threshold 0.0001) PASS",
        "    relative difference: 6.667e-02",
        "    here:  overall: PASS",
        "    there: overall: FAIL",
        "    here:  ",
        "    there: x",
    ]


def test_a_command_past_its_timeout_is_reported_as_a_timeout(tmp_path, monkeypatch):
    # A tree whose mef.cli never returns.
    (tmp_path / "src" / "mef").mkdir(parents=True)
    (tmp_path / "src" / "mef" / "__init__.py").write_text("")
    (tmp_path / "src" / "mef" / "cli.py").write_text("import time\ntime.sleep(60)\n")
    monkeypatch.setattr(compare_outputs, "TIMEOUT_S", 0.5)
    assert compare_outputs.run(tmp_path, ["check"], tmp_path / "out") == ("timeout", "", "", {})


def test_prints_how_far_each_column_of_a_differing_csv_moved(capsys):
    here = {"run.csv": b"t,err_rad,delta_norm,substeps\n0,0.5,0,0\n0.1,0.25,1e-3,4\n0.2,2,0,3\n",
            "same.csv": b"t\n0\n", "ours.csv": b"t\n"}
    there = {"run.csv": b"t,err_rad,delta_norm,substeps\n0,0.5,0,0\n0.1,0.2,1e-3,5\n0.2,2.0,0,3\n",
             "same.csv": b"t\n0\n", "short.csv": b"t\n0\n"}
    compare_outputs.print_csv_differences(here, there)
    assert capsys.readouterr().out.splitlines() == [
        "    ours.csv: here only",
        "    run.csv t: largest relative difference 0.000e+00",
        "    run.csv err_rad: largest relative difference 2.000e-01",
        "    run.csv delta_norm: largest relative difference 0.000e+00",
        "    run.csv substeps: differs in 1 rows",
        "    short.csv: there only",
    ]


def test_a_csv_whose_shape_changed_is_reported_as_such(capsys):
    compare_outputs.print_csv_differences({"run.csv": b"t,substeps\n0,0\n"},
                                          {"run.csv": b"t,substeps\n0,0\n0.1,2\n"})
    assert capsys.readouterr().out.splitlines() == [
        "    run.csv: header or row count differs (2 lines here, 3 there)"]


def test_a_sweep_summary_compares_its_numbers_and_skips_its_paths(capsys):
    header = b"value,csv,final_error_rad,max_opt_residual,total_substeps\n"
    compare_outputs.print_csv_differences(
        {"sweep.csv": header + b"3,OUT/a.csv,0.3,1e-15,2497\n"},
        {"sweep.csv": header + b"3,OUT/b.csv,0.3,2e-15,2497\n"})
    assert capsys.readouterr().out.splitlines() == [
        "    sweep.csv value: largest relative difference 0.000e+00",
        "    sweep.csv final_error_rad: largest relative difference 0.000e+00",
        "    sweep.csv max_opt_residual: largest relative difference 5.000e-01",
        "    sweep.csv total_substeps: identical",
    ]
