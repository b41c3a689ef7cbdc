"""tools/compare_outputs.py prints what differs between two stdouts, and
reports a command that runs past its timeout as a timeout."""

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
    compare_outputs.print_stdout_differences(here, there)
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
