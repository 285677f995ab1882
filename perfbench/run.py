"""Run one benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload compile-grid --seed 1 --seconds 30 --trace 0

With --trace 0 the workload sets up SETUP_REPEATS times (each time with a
fresh import of the package) and then repeats its timed pass while the
next one still fits in --seconds, at least once. setup_s and wall_s are
medians over those repeats, each in seconds at the reference speed of
speed.py; the raw seconds are in the record. With --trace 1 it sets up
once, runs one plain pass and one pass with every traced function
wrapped, and reports the per-layer metrics in raw seconds. Either way it prints a readable record of every
metric, check and environment detail, then, as its last line, the JSON
result: {"correct", "attempted", "failed", "metrics"}.

Single process, no threads. Everything it writes goes under perfbench/_work
and is removed before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from speed import SpeedProbe  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORK, WORKLOADS, load_package  # noqa: E402

SETUP_REPEATS = 9

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB", "schedule_ops": "count"}

# Per-layer metrics beyond calls and self time of each traced function.
LAYER_EXTRAS = {
    "baseline.op_yield": "ratio",
    "driver.accept_ratio": "ratio",
    "schedule.validate.us_per_gate.short": "us/gate",
    "schedule.validate.us_per_gate.long": "us/gate",
    "trace_overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(LAYER_EXTRAS)
    return units


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, read without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_plain(workload, seed: int, seconds: float):
    raw_setup_s, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        with SpeedProbe() as probe:
            start = perf_counter()
            lib = load_package()
            workload.setup(lib, seed)
            raw_setup_s.append(perf_counter() - start)
        setup_s.append(probe.normalize(raw_setup_s[-1]))
    passes, wall_s = [], []
    start = perf_counter()
    while True:
        with SpeedProbe() as probe:
            passes.append(workload.run_pass())
        wall_s.append(probe.normalize(passes[-1].wall_s))
        typical = statistics.median(p.wall_s for p in passes)
        if perf_counter() - start + typical > seconds:
            break
    details, outputs = workload.summarize(passes)
    details["raw_setup_s"] = (statistics.median(raw_setup_s), "s")
    details["raw_wall_s"] = (statistics.median(p.wall_s for p in passes), "s")
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(wall_s),
        "peak_rss_mib": peak_rss_mib(),
        "schedule_ops": details.pop("schedule_ops")[0],
    }
    return lib, passes, metrics, END_TO_END_UNITS, details, outputs


def run_traced(workload, seed: int):
    lib = load_package()
    workload.setup(lib, seed)
    plain = workload.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run_pass(tracer)
    finally:
        tracer.restore()
    passes = [plain, traced]
    details, outputs = workload.summarize(passes)
    metrics = {}
    for name, _, _ in TARGETS:
        span = tracer.spans[name]
        metrics[f"{name}.calls"] = span.calls
        metrics[f"{name}.self_s"] = span.self_s
    applied = tracer.nested["ops.apply", "baseline.compile"]
    metrics["baseline.op_yield"] = (
        tracer.result_sizes["baseline.compile"] / applied if applied else 0
    )
    # Only replay-long drives the client and replays files of two lengths.
    files = sorted(traced.data.get("files", []), key=lambda f: f["gates"])
    attempts = sum(f["attempts"] for f in files)
    accepted = attempts - sum(f["retries"] for f in files)
    metrics["driver.accept_ratio"] = accepted / attempts if attempts else 0
    for label, index in (("short", 0), ("long", -1)):
        metrics[f"schedule.validate.us_per_gate.{label}"] = (
            1e6 * files[index]["traced_validate_s"] / files[index]["gates"] if files else 0
        )
    metrics["trace_overhead_s"] = traced.wall_s - plain.wall_s
    details["plain_wall_s"] = (plain.wall_s, "s")
    details["traced_wall_s"] = (traced.wall_s, "s")
    return lib, passes, metrics, per_layer_units(), details, outputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="shuttlekit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]()
    try:
        if args.trace:
            outcome = run_traced(workload, args.seed)
        else:
            outcome = run_plain(workload, args.seed, args.seconds)
    except ImportError as exc:
        print(f"cannot import shuttlekit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    lib, passes, metrics, units, details, outputs = outcome
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "env": {
            "python": platform.python_version(),
            "kernel_backend": lib.kernel.BACKEND,
            "nproc": os.cpu_count(),
            "commit": git_commit(ROOT),
            "seed": args.seed,
        },
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "workload_metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in details.items()
        },
        "outputs": outputs,
        "pass_wall_s": [p.wall_s for p in passes],
        "problems": [m for p in passes for m in p.problems],
    }
    print(json.dumps(record, indent=2))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
