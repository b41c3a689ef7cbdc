"""Compare the outputs of this checkout with those of another revision.

Usage (from anywhere inside the repository):

    python3 tools/compare_outputs.py REV

REV is exported with ``git archive`` into a temporary directory, so
nothing is written under ``.git``. Both trees then run the same commands
from their own ``src``:

- ``mef simulate`` on the ``noisy`` preset with seeds 3, 0, 8, 15, 6, 4,
  12 and 7, and on the ``noiseless`` preset;
- ``mef check`` at ``--dt 1e-3`` and ``--dt 2.5e-4``, and at ``--dt 5e-3``,
  whose gradient agreement row fails (exit 1);
- three runs that exit 3: the ``noisy`` preset with seed 43, whose
  correction solve fails late (t = 96.4 s), the default preset with
  ``--set observer.hessian_scale=1e3``, whose state overflows at epoch 10,
  and ``check --set check.hessian_scale=0``, whose P is zero at epoch 0.

For each command the exit code, stdout, stderr and the CSV bytes are
compared. The ``wall_time_s:`` and ``csv:`` lines of stdout are ignored,
since they name the machine's speed and the output directory. A Python
warning in stderr is compared by its category and message only, without
the file, line, source text, or the name of the numpy operation that
raised it (``overflow encountered in matmul`` and ``... in dot`` compare
equal): a new, lost or different kind of warning still shows. Every
difference is printed, and the script exits 1 if there is any, 0
otherwise.
"""

from __future__ import annotations

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
       ["check", "--dt", "1e-3"],
       ["check", "--dt", "2.5e-4"],
       ["check", "--dt", "5e-3"],
       ["simulate", "--config", "noisy", "--seed", "43"],
       ["simulate", "--set", "observer.hessian_scale=1e3"],
       ["check", "--set", "check.hessian_scale=0"]]
)
IGNORED_PREFIXES = ("wall_time_s:", "csv:")
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


def run(tree: Path, argv: list[str], out: Path) -> tuple[int, str, str, dict[str, bytes]]:
    """Exit code, stdout without the ignored lines, stderr, and the CSVs
    written."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "mef.cli", *argv, "--out", str(out)],
                          cwd=out, env=env, capture_output=True, text=True)
    stdout = "\n".join(line for line in proc.stdout.splitlines()
                       if not line.startswith(IGNORED_PREFIXES))
    csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    return proc.returncode, stdout, WARNING.sub(r"\1: \2", proc.stderr), csvs


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
                    print(f"  {name} differs")
    print(f"{differences} of {len(COMMANDS)} commands differ from {rev}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
