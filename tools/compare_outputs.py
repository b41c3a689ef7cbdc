"""Compare the outputs of this checkout with those of another revision.

Usage (from anywhere inside the repository):

    python3 tools/compare_outputs.py REV

REV is exported with ``git archive`` into a temporary directory, so
nothing is written under ``.git``. Both trees then run the same commands
from their own ``src``:

- ``mef simulate`` on the ``noisy`` preset with seeds 3, 0, 8, 15, 6, 4,
  12 and 7, and on the ``noiseless`` preset;
- ``mef simulate`` on the ``noiseless`` preset with
  ``--set scenario.duration=0`` (no epochs) and ``0.1`` (two epochs), which
  pin the empty log and the shortest stacked log, and with
  ``--set scenario.q0=-1,0,0,0 --set observer.initial_error_rad=0``, which
  starts the observer at the lift of a quaternion with zero vector part
  (X_hat close to -I, the double cover of the identity);
- ``mef simulate`` on the ``noisy`` preset with
  ``--set noise.vector_sigma=0.3``, ``noise.vector_sigma=0`` (no output
  weight) and ``noise.gyro_sigma=0.03``. Every other command has
  vector_sigma = 1, whose output weight of 1 leaves the products that form
  R exact, so only the first sees how R's product is grouped; the second
  pins a zero weight, and the third a second gyro sigma, in the velocity
  gain and in the injected noise;
- ``mef simulate`` on the ``noisy`` preset with constant signals in place
  of the canonical ones, ``--set scenario.omega=const:0.3,-0.2,0.1``,
  ``scenario.reference=const:0,0.6,0.8``, ``scenario.q0=0.5,0.5,0.5,0.5``
  and ``scenario.duration=20``, so that the truth starts away from the
  identity and every rate and reference component is nonzero;
- ``mef check`` at ``--dt 1e-3`` and ``--dt 2.5e-4``, at ``--dt 1e-4``
  (N = 10 000 steps, where the brute-force solve takes the largest share
  of the run), and at ``--dt 5e-3``, whose gradient agreement row fails
  (exit 1);
- four runs that exit 3: the ``noisy`` preset with seed 43, whose
  correction solve fails late (t = 96.4 s), the default preset with
  ``--set observer.hessian_scale=1e3``, whose correction solve fails on a
  NaN residual at epoch 9 as its diverging state overflows,
  ``check --set check.hessian_scale=0``, whose P is zero at epoch 0, and
  ``check --set check.vector_sigma_true=1e150``, whose correction's
  squared norm overflows at epoch 0;
- ``mef sweep`` over the ``noisy`` preset's seeds 3 and 0 with
  ``--jobs 2``, so that both runs are made in forked pool workers, and
  with ``--jobs 1``, so that both are made in the sweep's own process,
  which never imports the pool;
- ``mef simulate`` on the ``noisy`` preset with ``--seed -1``, a config
  error (exit 2), and on the default preset with
  ``--set scenario.q0=0,0,0,0``, a config error (exit 2) that pins the
  message of the quaternion unit-norm check.

Each command is given TIMEOUT_S seconds; one that runs longer is stopped,
and "timeout" is its outcome in place of an exit code, with empty stdout
and stderr. For each command the exit code, stdout, stderr and the CSV
bytes are compared, with the command's output directory written as ``OUT`` in
stdout and in the CSVs (the sweep summary names each run's CSV path).
The ``wall_time_s:`` line of stdout is ignored, since it names the
machine's speed. A Python warning in stderr is compared by its category
and message only, without the file, line, source text, or the name of the
numpy operation that raised it (``overflow encountered in matmul`` and
``... in dot`` compare equal): a new, lost or different kind of warning
still shows. Every difference is printed, and the script exits 1 if there
is any, 0 otherwise. For stdout and stderr, each differing pair of lines
is printed too, so an exit line that moved shows its guard and epoch,
with the relative difference of the two numbers of a ``name: number``
line (a check row), which counts as a difference however small. For a CSV
that differs, the largest relative difference of each numeric column is
printed, and whether each substep-count column differs; or else that the
CSV exists on one side only, or that its header or row count differs.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOISY_SEEDS = (3, 0, 8, 15, 6, 4, 12, 7)
COMMANDS = (
    [["simulate", "--config", "noisy", "--seed", str(s)] for s in NOISY_SEEDS]
    + [["simulate", "--config", "noiseless"],
       ["simulate", "--config", "noiseless", "--set", "scenario.duration=0"],
       ["simulate", "--config", "noiseless", "--set", "scenario.duration=0.1"],
       ["simulate", "--config", "noiseless", "--set", "scenario.q0=-1,0,0,0",
        "--set", "observer.initial_error_rad=0"],
       ["simulate", "--config", "noisy", "--set", "noise.vector_sigma=0.3"],
       ["simulate", "--config", "noisy", "--set", "noise.vector_sigma=0"],
       ["simulate", "--config", "noisy", "--set", "noise.gyro_sigma=0.03"],
       ["simulate", "--config", "noisy", "--set", "scenario.omega=const:0.3,-0.2,0.1",
        "--set", "scenario.reference=const:0,0.6,0.8", "--set", "scenario.q0=0.5,0.5,0.5,0.5",
        "--set", "scenario.duration=20"],
       ["check", "--dt", "1e-3"],
       ["check", "--dt", "2.5e-4"],
       ["check", "--dt", "1e-4"],
       ["check", "--dt", "5e-3"],
       ["simulate", "--config", "noisy", "--seed", "43"],
       ["simulate", "--set", "observer.hessian_scale=1e3"],
       ["check", "--set", "check.hessian_scale=0"],
       ["check", "--set", "check.vector_sigma_true=1e150"],
       ["sweep", "--config", "noisy", "--param", "seed", "--values", "3,0", "--jobs", "2"],
       ["sweep", "--config", "noisy", "--param", "seed", "--values", "3,0", "--jobs", "1"],
       ["simulate", "--config", "noisy", "--seed", "-1"],
       ["simulate", "--set", "scenario.q0=0,0,0,0"]]
)
TIMEOUT_S = 300
IGNORED_PREFIXES = ("wall_time_s:",)
NUMBER_LINE = re.compile(r"^([\w.]+): ([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?:\s|$)")
# "path:line: Category: message in op" and the indented source line after it.
WARNING = re.compile(r"^\S.*?: (\w+Warning): (.*?)(?: in [\w ]+)?\n  .*$", re.M)


def export(rev: str, dest: Path) -> None:
    archive = dest / "tree.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                       stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree")
    archive.unlink()


def run(tree: Path, argv: list[str], out: Path) -> tuple[int | str, str, str, dict[str, bytes]]:
    """Exit code, or "timeout" past TIMEOUT_S seconds, stdout without the
    ignored lines, stderr, and the CSVs written, with ``out`` written as OUT
    in stdout and the CSVs."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "mef.cli", *argv, "--out", str(out)],
                              cwd=out, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = subprocess.CompletedProcess(argv, "timeout", "", "")
    stdout = "\n".join(line for line in proc.stdout.splitlines()
                       if not line.startswith(IGNORED_PREFIXES)).replace(str(out), "OUT")
    csvs = {p.name: p.read_bytes().replace(bytes(out), b"OUT")
            for p in sorted(out.glob("*.csv"))}
    return proc.returncode, stdout, WARNING.sub(r"\1: \2", proc.stderr), csvs


def print_line_differences(here: str, there: str) -> None:
    """Print each differing pair of stdout or stderr lines, this
    checkout's first, and for a ``name: number ...`` pair also the numbers'
    relative difference."""
    for a, b in itertools.zip_longest(here.splitlines(), there.splitlines(), fillvalue=""):
        if a == b:
            continue
        print(f"    here:  {a}\n    there: {b}")
        x, y = NUMBER_LINE.match(a), NUMBER_LINE.match(b)
        if x and y and x[1] == y[1]:
            print(f"    relative difference: {relative_difference(float(x[2]), float(y[2])):.3e}")


def relative_difference(u: float, v: float) -> float:
    """|u - v| / max(|u|, |v|), and 0 for two zeros."""
    scale = max(abs(u), abs(v))
    return abs(u - v) / scale if scale else 0.0


def print_csv_differences(here: dict[str, bytes], there: dict[str, bytes]) -> None:
    """Print how each CSV differs, this checkout's first: a file on one side
    only, a different header or row count, or else the largest relative
    difference of each numeric column and, for a substep count, whether it
    differs at all."""
    for name in sorted(here.keys() | there.keys()):
        if name not in here or name not in there:
            print(f"    {name}: {'here' if name in here else 'there'} only")
            continue
        if here[name] == there[name]:
            continue
        ours, theirs = (list(csv.reader(io.StringIO(data.decode()))) for data in
                        (here[name], there[name]))
        if ours[:1] != theirs[:1] or len(ours) != len(theirs):
            print(f"    {name}: header or row count differs "
                  f"({len(ours)} lines here, {len(theirs)} there)")
            continue
        for k, column in enumerate(ours[0]):
            pairs = [(row[k], other[k]) for row, other in zip(ours[1:], theirs[1:])]
            if column.endswith("substeps"):
                changed = sum(a != b for a, b in pairs)
                print(f"    {name} {column}: "
                      + (f"differs in {changed} rows" if changed else "identical"))
                continue
            try:
                numbers = [(float(a), float(b)) for a, b in pairs]
            except ValueError:
                continue
            worst = max((relative_difference(u, v) for u, v in numbers), default=0.0)
            print(f"    {name} {column}: largest relative difference {worst:.3e}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rev = argv[0]
    differences = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp_path = Path(tmp)
        export(rev, tmp_path)
        for k, command in enumerate(COMMANDS):
            here = run(ROOT, command, tmp_path / f"here_{k}")
            there = run(tmp_path / "tree", command, tmp_path / f"there_{k}")
            label = " ".join(command)
            same = here == there
            differences += not same
            print(f"{'identical' if same else 'DIFFERENT'}: {label}")
            for name, a, b in zip(("exit code", "stdout", "stderr", "CSV"), here, there):
                if a != b:
                    print(f"  {name} differs" + (f": {a} here, {b} there"
                                                 if name == "exit code" else ""))
                    if name in ("stdout", "stderr"):
                        print_line_differences(a, b)
                    elif name == "CSV":
                        print_csv_differences(a, b)
    print(f"{differences} of {len(COMMANDS)} commands differ from {rev}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
