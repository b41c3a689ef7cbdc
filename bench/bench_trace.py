"""Call tracing for the benchmark's traced run.

The tracer wraps the public functions of each ``mef`` module from the
outside: it replaces the module attributes that hold them, in every
``mef`` module that imported them by name, and restores the originals on
``uninstall``. ``src/mef`` is never edited, and a timed run refuses to
start while any wrapper is installed (``assert_clean``).

Every traced call becomes a span ``(unit, span_id, parent_id, name,
start, end, self_s)``; spans stay in memory until the run ends. A span's
self time is its duration minus the time spent in traced calls it made.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time

# Layer boundaries: the traced functions of each module. Span names are
# "<module>.<function>" without the "mef." prefix.
TARGETS = {
    "mef.cli": ("build_verification_problem",),
    "mef.config": ("build_run_config",),
    "mef.simulation": ("run", "simulate_truth", "corrupt", "write_csv"),
    "mef.quaternion": ("build_sample", "attitude_error_angle"),
    "mef.filter": ("step", "correction_delta", "hessian_rate", "gradient_rate",
                   "value_rate", "optimality_residual"),
    "mef.liegroup": ("exp_group", "adjoint_coords", "upsilon"),
    "mef.bruteforce": ("value_at", "gradient_hessian_at", "check_critical_point"),
}
CLASSMETHOD_TARGETS = {"mef.bruteforce": (("DiscretizedProblem", "from_substeps"),)}

MARK = "__bench_span__"


def _mef_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mef" or name.startswith("mef."))]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.unit = 0
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    def _wrap(self, func, name: str):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent_id = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((self.unit, span_id, parent_id, name, start, end,
                              end - start - frame[1]))

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        for module_name in TARGETS:
            importlib.import_module(module_name)
        modules = _mef_modules()
        for module_name, attrs in TARGETS.items():
            module = sys.modules[module_name]
            short = module_name.split(".", 1)[1]
            for attr in attrs:
                original = getattr(module, attr)
                wrapper = self._wrap(original, f"{short}.{attr}")
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self._patched.append((holder, key, original))
        for module_name, pairs in CLASSMETHOD_TARGETS.items():
            module = sys.modules[module_name]
            short = module_name.split(".", 1)[1]
            for class_name, attr in pairs:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(original.__func__, f"{short}.{attr}")
                setattr(cls, attr, classmethod(wrapper))
                self._patched.append((cls, attr, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def run_unit(self, unit: int, func, *args):
        """Call func(*args) under a root span named "unit"."""
        self.unit = unit
        return self._wrap(func, "unit")(*args)


def find_wrappers() -> list[str]:
    """Names of tracer wrappers still reachable from a loaded mef module."""
    found = []
    for module in _mef_modules():
        for key, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type) and value.__module__.startswith("mef"):
                for attr, desc in vars(value).items():
                    if hasattr(getattr(desc, "__func__", None), MARK):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


def assert_clean() -> None:
    left = find_wrappers()
    if left:
        raise RuntimeError(f"tracer wrappers still installed: {', '.join(left)}")


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds. The first
    ``value_at`` of each unit (KKT assembly, factorization and one solve)
    is also reported on its own as ``bruteforce.value_at.first``."""
    stats: dict[str, dict] = {}
    first_seen = set()

    def add(name, span):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span[5] - span[4]
        entry["self_s"] += span[6]

    for span in sorted(spans, key=lambda s: s[4]):
        add(span[3], span)
        if span[3] == "bruteforce.value_at" and span[0] not in first_seen:
            first_seen.add(span[0])
            add("bruteforce.value_at.first", span)
    return stats
