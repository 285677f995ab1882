"""Call counts and self time for shuttlekit functions, recorded from outside.

The tracer wraps each target function wherever the package holds it: the
defining module, every shuttlekit module that imported it by name (for
example `step` in dataset and driver, `optimize` in baseline, driver and
cli), the class for methods, and the kernel backend module that
`kernel.get_backend()` returns. `restore()` puts every original back.

Spans are aggregated as they close instead of being stored: a traced pass
makes around a million calls. A span's self time is its duration minus the
durations of the traced spans it directly encloses.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

# (metric prefix, module, attribute); "module:Class" names a method.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("kernel.successors", "kernel:backend", "successors"),
    ("kernel.ready_gates", "kernel:backend", "ready_gates"),
    ("baseline.compile", "baseline", "compile"),
    ("ops.apply", "ops", "apply"),
    ("ops.allowed_ops", "ops", "allowed_ops"),
    ("circuit.mark_executed", "circuit:Circuit", "mark_executed"),
    ("state.initial_placement", "state", "initial_placement"),
    ("trap.bfs_distances", "trap", "bfs_distances"),
    ("schedule.step", "schedule", "step"),
    ("schedule.validate", "schedule", "validate"),
    ("schedule.decompose", "schedule", "decompose"),
    ("schedule.optimize", "schedule", "optimize"),
    ("schedule.parse_schedule", "schedule", "parse_schedule"),
    ("dataset.render_instruction", "dataset", "render_instruction"),
    ("dataset.render_output", "dataset", "render_output"),
    ("dataset.to_jsonl", "dataset", "to_jsonl"),
    ("dataset.parse_output", "dataset", "parse_output"),
    ("driver.generate_schedule", "driver", "generate_schedule"),
    ("cli.main", "cli", "main"),
)

# Calls of the first span counted only while the second one is open.
NESTED: tuple[tuple[str, str], ...] = (("ops.apply", "baseline.compile"),)

# Sizes summed over the values a span returns.
RESULT_SIZES: dict[str, Callable[[Any], int]] = {
    "baseline.compile": lambda schedule: len(schedule.ops),
}


def _package_modules() -> list[ModuleType]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "shuttlekit" or name.startswith("shuttlekit."))
    ]


def _owner(spec: str) -> Any:
    module_name, _, class_name = spec.partition(":")
    module = sys.modules[f"shuttlekit.{module_name}"]
    if class_name == "backend":
        return module.get_backend()
    if class_name:
        return getattr(module, class_name)
    return module


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Install with `install()`, read `spans`, and always call `restore()`."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanTotals] = defaultdict(SpanTotals)
        self.nested: Counter[tuple[str, str]] = Counter()
        self.result_sizes: Counter[str] = Counter()
        self._open: Counter[str] = Counter()
        self._child_s: list[float] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for name, spec, attr in TARGETS:
            owner = _owner(spec)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, ModuleType):
                for module in _package_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        totals = self.spans[name]
        open_spans = self._open
        child_s = self._child_s
        outers = [outer for inner, outer in NESTED if inner == name]
        nested = self.nested
        size_of = RESULT_SIZES.get(name)
        sizes = self.result_sizes

        def traced(*args, **kwargs):
            for outer in outers:
                if open_spans[outer]:
                    nested[name, outer] += 1
            open_spans[name] += 1
            child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = child_s.pop()
                open_spans[name] -= 1
                totals.calls += 1
                totals.total_s += elapsed
                totals.self_s += elapsed - inner
                if child_s:
                    child_s[-1] += elapsed
            if size_of is not None:
                sizes[name] += size_of(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced
