"""Workload definitions: which ``mef`` commands a workload runs for a seed.

A workload seed generates the inputs; the program only ever sees the
resulting command lines. Seed 0 reproduces the repository's defaults:
the ``noisy`` preset (mef seed 3), the ``check`` default seed (0) and a
sweep over mef seeds 0-9. Other seeds take further mef seeds from the
same lists; simulate-noisy repeats its inputs every 17 workload seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("simulate-noisy", "check-fine", "sweep-seeds")

# mef seeds below 160 on which the noisy preset exits 3 (singular
# correction solve) at the commit that introduced this benchmark: after
# t = 87 s the solve's relative residual reaches 1.0e-8 to 4.2e-8, just past
# filter.p_solve_tolerance = 1e-8. That is a defect of the program, listed
# in README.md. The workloads draw their mef seeds from the rest of 0-159
# so that no run fails; drop a seed from this set once it runs clean.
SCANNED_NOISY_SEEDS = 160
SINGULAR_NOISY_SEEDS = frozenset({30, 43, 48, 51, 55, 56, 66, 68, 70, 76, 83, 85, 87,
                                  94, 95, 111, 119, 131, 136, 138, 139, 141, 152})
NOISY_POOL = tuple(s for s in range(SCANNED_NOISY_SEEDS) if s not in SINGULAR_NOISY_SEEDS)
# The pool sorted by substep count at that commit (2099 to 15047 per seed)
# and cut into eight strata of 17 seeds; seed 112, the costliest, is left
# out. simulate-noisy at workload seed s cycles through element s % 17 of
# each stratum, so every workload seed runs one cheap, one middling, ...
# one costly input and run_s does not depend on which seeds were drawn.
# The stratum holding seed 3 is listed first and rotated to start with it,
# so that workload seed 0 starts with the noisy preset.
NOISY_STRATA = (
    (3, 16, 17, 23, 24, 28, 29, 44, 50, 74, 77, 125, 128, 137, 145, 153, 2),
    (0, 1, 5, 34, 37, 57, 60, 80, 89, 91, 110, 116, 117, 144, 150, 154, 157),
    (8, 9, 11, 20, 22, 31, 69, 75, 96, 98, 99, 104, 113, 124, 127, 147, 158),
    (15, 19, 21, 27, 36, 39, 46, 47, 62, 67, 84, 106, 122, 126, 134, 135, 149),
    (6, 10, 33, 40, 45, 53, 54, 65, 78, 79, 90, 93, 105, 121, 130, 132, 151),
    (4, 13, 18, 26, 41, 59, 64, 71, 86, 97, 100, 103, 107, 108, 114, 123, 159),
    (12, 14, 25, 32, 42, 49, 73, 82, 88, 102, 109, 115, 140, 143, 146, 148, 156),
    (7, 35, 38, 52, 58, 61, 63, 72, 81, 92, 101, 118, 120, 129, 133, 142, 155),
)
CHECK_DT = "2.5e-4"
SWEEP_SIZE = 10
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Unit:
    """One invocation of a ``mef`` subcommand: the unit that is timed."""

    kind: str  # "simulate", "check" or "sweep"
    seeds: tuple[int, ...]

    def argv(self, out_dir: str, jobs: int = SWEEP_JOBS) -> list[str]:
        if self.kind == "simulate":
            return ["simulate", "--config", "noisy", "--seed", str(self.seeds[0]),
                    "--out", out_dir]
        if self.kind == "check":
            return ["check", "--dt", CHECK_DT, "--seed", str(self.seeds[0]),
                    "--out", out_dir]
        values = ",".join(str(s) for s in self.seeds)
        return ["sweep", "--config", "noisy", "--param", "seed", "--values", values,
                "--jobs", str(jobs), "--out", out_dir]

    def warmup(self) -> "Unit":
        """Unit run once, untimed, before measuring. A sweep warms up with
        a single simulate of its first seed: the pool workers fork from
        the warmed process, and a whole sweep would cost 6-10 s."""
        if self.kind == "sweep":
            return Unit("simulate", self.seeds[:1])
        return self


def units(workload: str, seed: int) -> list[Unit]:
    """Inputs of ``workload`` for workload seed ``seed`` (>= 0)."""
    if seed < 0:
        raise ValueError("workload seed must be non-negative")
    if workload == "simulate-noisy":
        return [Unit("simulate", (stratum[seed % len(stratum)],)) for stratum in NOISY_STRATA]
    if workload == "check-fine":
        return [Unit("check", (seed,))]
    if workload == "sweep-seeds":
        first = SWEEP_SIZE * seed
        return [Unit("sweep", tuple(NOISY_POOL[(first + j) % len(NOISY_POOL)] for j in range(SWEEP_SIZE)))]
    raise ValueError(f"unknown workload {workload!r}")
