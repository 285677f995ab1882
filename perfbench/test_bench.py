"""Tests of the benchmark harness itself.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def lib():
    return workloads.load_package()


def _small_schedule(lib):
    graph = lib.trap.build_linear(2)
    circuit = lib.baseline.random_circuit(3, 4, 5)
    return lib.baseline.compile(circuit, graph)


def test_validate_applies_each_op_once(lib):
    schedule = _small_schedule(lib)
    tracer = Tracer()
    tracer.install()
    try:
        assert lib.schedule.validate(schedule).ok
    finally:
        tracer.restore()
    n = len(schedule.ops)
    assert tracer.spans["schedule.validate"].calls == 1
    assert tracer.spans["schedule.step"].calls == n
    assert tracer.spans["ops.apply"].calls == n
    gates = len(schedule.circuit.gates)
    assert tracer.spans["circuit.mark_executed"].calls == gates
    for span in tracer.spans.values():
        assert 0 <= span.self_s <= span.total_s


def test_tracer_wraps_every_alias_and_restores_it(lib):
    aliases = [
        (lib.dataset, "step"), (lib.driver, "step"), (lib.schedule, "step"),
        (lib.dataset, "decompose"),
        (lib.baseline, "optimize"), (lib.driver, "optimize"), (lib.cli, "optimize"),
        (lib.driver, "parse_output"), (lib.driver, "render_instruction"),
        (lib.cli, "validate"), (lib.kernel.get_backend(), "successors"),
        (lib.circuit.Circuit, "mark_executed"),
    ]
    originals = [getattr(owner, name) for owner, name in aliases]
    tracer = Tracer()
    tracer.install()
    try:
        for owner, name in aliases:
            assert hasattr(getattr(owner, name), "__wrapped__"), (owner, name)
    finally:
        tracer.restore()
    assert [getattr(owner, name) for owner, name in aliases] == originals


def test_compile_counts_search_expansions(lib):
    graph = lib.trap.build_eval_layout("ring", 4)
    circuit = lib.baseline.random_circuit(4, 6, 0)
    tracer = Tracer()
    tracer.install()
    try:
        schedule = lib.baseline.compile(circuit, graph)
    finally:
        tracer.restore()
    assert tracer.spans["kernel.successors"].calls > 0
    assert tracer.result_sizes["baseline.compile"] == len(schedule.ops)
    assert tracer.nested["ops.apply", "baseline.compile"] >= len(schedule.ops)


_COUNTS = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads
from tracer import Tracer
lib = workloads.load_package()
grid = workloads.CompileGrid()
grid.setup(lib, 3)
grid.cases = grid.cases[:3] + grid.cases[-1:]
tracer = Tracer()
tracer.install()
result = grid.run_pass(tracer)
tracer.restore()
print(result.data["schedule_ops"], result.data["compile_errors"],
      tracer.spans["kernel.successors"].calls)
"""


def test_counts_do_not_depend_on_hash_seed():
    code = _COUNTS.format(src=str(ROOT / "src"), here=str(HERE))
    outputs = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    ops, errors, expansions = map(int, outputs[0].split())
    assert ops > 0 and errors == 1 and expansions > 0


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_changed_input_is_refused(monkeypatch):
    workloads.verify_inputs()
    sha256 = workloads._sha256

    def changed(path):
        return sha256(path)[::-1] if path.name == "schedule_d200.txt" else sha256(path)

    monkeypatch.setattr(workloads, "_sha256", changed)
    with pytest.raises(SystemExit):
        workloads.verify_inputs()


def test_speed_probe_samples_inside_the_span_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = perf_counter() + 0.35
        while perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(probe.samples) >= 4
    typical = sorted(probe.samples)[len(probe.samples) // 2]
    assert probe.normalize(1.0) == pytest.approx(REFERENCE_S / typical, rel=0.5)
