"""The benchmark's correctness gate, applied in the test suite.

``bench/bench_gate.py`` rejects a benchmark run whose outputs drift from
``bench/reference.json``: exact substep counts, ``final_error_rad`` to a
relative 1e-6 and ``max_opt_residual`` to an absolute 1e-12. A change of
round-off in the observer that would fail that gate fails here first. The
gate and the reference are loaded read-only, so their tolerances are the
gate's own.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from mef.cli import EXIT_OK, main
from mef.simulation import CSV_HEADER

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _load_gate():
    spec = importlib.util.spec_from_file_location("_reference_gate", BENCH_DIR / "bench_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATE = _load_gate()
REFERENCE = GATE.load_reference()


def test_gate_tolerances_are_the_documented_ones():
    assert (GATE.FINAL_ERROR_RTOL, GATE.RESIDUAL_ATOL) == (1e-6, 1e-12)


@pytest.mark.parametrize("seed", [3, 7])
def test_noisy_run_passes_the_benchmark_gate(seed, tmp_path, capsys):
    assert str(seed) in REFERENCE["noisy"]
    code = main(["simulate", "--config", "noisy", "--seed", str(seed), "--out", str(tmp_path)])
    outcome = {"rc": code, "stdout": capsys.readouterr().out, "error": None}
    assert code == EXIT_OK
    unit = SimpleNamespace(kind="simulate", seeds=(seed,))
    assert GATE.check_unit(unit, outcome, CSV_HEADER, REFERENCE) == []
