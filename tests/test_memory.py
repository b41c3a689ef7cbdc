"""Peak memory of a fresh ``mef check`` against its horizon N.

check holds every substep of the replayed run and the stage blocks of its
KKT system, so its peak resident set grows linearly in N. The slope
between a fresh ``check --dt 1e-3`` (N = 1000) and ``--dt 1e-4``
(N = 10 000) bounds what the verifier keeps per substep: the observer's
trace as (N, .) arrays, each sensor interval's data once, and the cyclic
reduction's buffers.

The peak is the child's VmHWM from /proc/self/status (Linux only), the
high-water mark of its own address space. Its ru_maxrss would not do: a
child that subprocess starts with vfork takes its parent's high-water mark
across the exec, so under a test runner of 60 MB the N = 1000 run would
read the runner's size.
"""

import re
import sys

import pytest

from test_cli import fresh_process

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads the peak RSS from /proc/self/status")

# Largest growth of the peak RSS per substep, in KiB. Measured at 3.0 on
# a 2-core Xeon (Python 3.11, numpy 2.4, OpenBLAS); it was 4.7 while each
# substep kept a record of small arrays and every step a copy of its
# interval's data. Repeated runs vary by less than 0.15 MB.
MAX_KIB_PER_SUBSTEP = 3.8


def peak_rss_kib(dt: str, cwd) -> tuple[int, int]:
    """(steps, peak RSS in KiB) of a fresh check at this dt."""
    code = ("import sys; from mef.cli import main; "
            f"code = main(['check', '--dt', '{dt}', '--out', '.']); "
            "status = open('/proc/self/status').read(); "
            "print('maxrss_kib:', status.split('VmHWM:')[1].split()[0]); "
            "sys.exit(code)")
    proc = fresh_process(code, cwd)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.decode()
    steps = int(re.search(r"^steps: (\d+)$", out, re.M).group(1))
    return steps, int(re.search(r"^maxrss_kib: (\d+)$", out, re.M).group(1))


def test_check_peak_rss_grows_by_at_most_the_bound_per_substep(tmp_path):
    (n_small, small), (n_large, large) = (peak_rss_kib(dt, tmp_path) for dt in ("1e-3", "1e-4"))
    assert (n_small, n_large) == (1000, 10000)
    slope = (large - small) / (n_large - n_small)
    assert slope <= MAX_KIB_PER_SUBSTEP, f"{slope:.2f} KiB per substep"
