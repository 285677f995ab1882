"""Command-line surface: every subcommand is a thin adapter over one module.

Exit codes: 0 success, 1 validation or generation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import ExitStack, suppress

from . import baseline, dataset, driver
from .circuit import MAX_QUBITS, Circuit, parse_circuit
from .errors import CompileError, ShuttleError
from .ops import format_op
from .schedule import (
    Schedule,
    parse_schedule,
    replay,
    schedule_paths,
    serialize_schedule,
    validate,
)
from .state import initial_placement
from .trap import (
    DEFAULT_CAPACITY,
    TrapGraph,
    build_branched,
    build_eval_layout,
    build_linear,
    parse_trap,
    serialize_trap,
)


class _UsageError(Exception):
    pass


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_trap(path: str) -> TrapGraph:
    return parse_trap(driver.read_text(path))


def _load_circuit(path: str) -> Circuit:
    return parse_circuit(driver.read_text(path))


def _resolve(base_file: str, path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.path.dirname(os.path.abspath(base_file)), path)


def _load_schedule_inputs(paths, trap=None, circuit=None, parsed=None):
    """Each schedule file's text, trap and circuit, each path given overriding the header's.

    Each distinct trap and circuit path is read and parsed once into
    `parsed`, a (graphs, circuits) pair of dicts by path, so the schedules
    on one trap share one graph object and its render memo, and a later
    pass that shares `parsed` reads only the schedule files again.
    """
    graphs, circuits = ({}, {}) if parsed is None else parsed
    for path in paths:
        text = driver.read_text(path)
        trap_path, circuit_path = schedule_paths(text)
        trap_path = trap or _resolve(path, trap_path)
        circuit_path = circuit or _resolve(path, circuit_path)
        if trap_path not in graphs:
            graphs[trap_path] = _load_trap(trap_path)
        if circuit_path not in circuits:
            circuits[circuit_path] = _load_circuit(circuit_path)
        yield text, graphs[trap_path], circuits[circuit_path]


def _write_schedule(schedule: Schedule, args) -> None:
    """Write to --out, a relative trap or circuit path made relative to its folder."""
    folder = os.path.dirname(os.path.abspath(args.out))
    trap_path, circuit_path = (
        path if args.out == "-" or os.path.isabs(path) else os.path.relpath(path, folder)
        for path in (args.trap, args.circuit)
    )
    _write(args.out, serialize_schedule(schedule, trap_path, circuit_path))


# -- subcommands ------------------------------------------------------------


def _cmd_trap(args) -> int:
    family = args.family
    if family == "linear":
        if args.per_side is None:
            raise _UsageError("--family linear needs --per-side")
        graph = build_linear(args.per_side, args.capacity)
    elif family == "branched":
        missing = [
            flag
            for flag, value in (
                ("--per-side", args.per_side),
                ("--stack-depth", args.stack_depth),
                ("--junction-distance", args.junction_distance),
            )
            if value is None
        ]
        if missing:
            raise _UsageError(f"--family branched needs {', '.join(missing)}")
        graph = build_branched(
            args.per_side, args.stack_depth, args.junction_distance, args.capacity
        )
    else:
        if args.qubit_count is None:
            raise _UsageError(f"--family {family} needs --qubit-count")
        graph = build_eval_layout(family.replace("-", "_"), args.qubit_count, args.capacity)
    _write(args.out, serialize_trap(graph))
    print(f"{family}: {len(graph.vertices)} vertices", file=sys.stderr)
    return 0


def _cmd_compile(args) -> int:
    graph = _load_trap(args.trap)
    circuit = _load_circuit(args.circuit)
    schedule = baseline.compile(circuit, graph)
    _write_schedule(schedule, args)
    print(
        f"compiled {len(circuit.gates)} gates into {len(schedule.ops)} operations",
        file=sys.stderr,
    )
    return 0


def _cmd_validate(args) -> int:
    [(text, graph, circuit)] = _load_schedule_inputs([args.schedule], args.trap, args.circuit)
    schedule = parse_schedule(text, graph, circuit, replay=False)
    report = validate(schedule)
    if report.ok:
        print(f"valid: {report.gates_executed} gates, {len(schedule.ops)} operations")
        return 0
    where = "" if report.failure_index is None else f" at op {report.failure_index}"
    print(f"invalid{where}: {report.reason}")
    return 1


def _cmd_optimize(args) -> int:
    [(text, graph, circuit)] = _load_schedule_inputs([args.schedule], args.trap, args.circuit)
    schedule = parse_schedule(text, graph, circuit, replay=False)
    report, _, trimmed, _ = replay(graph, schedule.placement, circuit, schedule.ops)
    if not report.ok:
        print(f"invalid schedule: {report.reason}", file=sys.stderr)
        return 1
    out = Schedule(graph, circuit, schedule.placement, tuple(trimmed))
    trap_path, circuit_path = schedule_paths(text)
    _write(args.out, serialize_schedule(out, trap_path, circuit_path))
    print(f"removed {len(schedule.ops) - len(trimmed)} operations", file=sys.stderr)
    return 0


def _cmd_oracle(args) -> int:
    graph = _load_trap(args.trap)
    circuit = _load_circuit(args.circuit)
    state = initial_placement(circuit, graph)
    route = baseline.bfs_next_gate(state, graph, circuit)
    for op in route:
        print(format_op(op))
    return 0


def _parse_qubit_range(text: str) -> range:
    """The qubit counts of `--qubits N` or `LO-HI`, in ASCII digits, within 1..MAX_QUBITS.

    Checked before any trap is built, since a trap's search tables grow
    with the square of its vertex count.
    """
    lo, sep, hi = text.partition("-")
    bounds = (lo, hi if sep else lo)
    ok = all(bound.isascii() and bound.isdigit() for bound in bounds)
    if ok:
        try:
            low, high = map(int, bounds)
        except ValueError:  # past the interpreter's digit limit
            ok = False
    if not ok:
        raise _UsageError(f"--qubits expects N or LO-HI in ASCII digits, got {text!r}")
    if low < 1 or high < low:
        raise _UsageError(f"bad qubit range {text!r}")
    if high > MAX_QUBITS:
        raise _UsageError(f"--qubits {text!r}: {high} qubits exceed the limit of {MAX_QUBITS}")
    return range(low, high + 1)


def _write_dataset(out_dir: str, parts) -> dict[str, int]:
    """Write each (split, entries) pair of `parts` to `out_dir`; the entry count per split.

    Each pair's `to_jsonl` text goes to a temporary file of its split as it
    arrives, so no entry outlives its write; both move into place as
    train.jsonl and eval.jsonl only after the last pair. An exception
    removes the temporary files, and `out_dir` if this call made it, so a
    failed run leaves no output and the files already there as they were.
    """
    made = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    counts = {"train": 0, "eval": 0}
    paths = {split: os.path.join(out_dir, f"{split}.jsonl") for split in counts}
    temps = {split: path + ".tmp" for split, path in paths.items()}
    try:
        with ExitStack() as stack:
            handles = {
                split: stack.enter_context(open(temp, "w", encoding="utf-8"))
                for split, temp in temps.items()
            }
            for split, entries in parts:
                handles[split].write(dataset.to_jsonl(entries))
                counts[split] += len(entries)
        for split, temp in temps.items():
            os.replace(temp, paths[split])
    except BaseException:
        for temp in temps.values():
            if os.path.exists(temp):
                os.remove(temp)
        if made:
            with suppress(OSError):
                os.rmdir(out_dir)
        raise
    return counts


def _compiled_entries(seed: int, depth: int, qubit_range: range, train: int, total: int):
    """The (split, entries) pairs of `--seed` mode, one compiled schedule at a time.

    A CompileError is raised again naming the qubit count, index and seed
    of the circuit that failed.
    """
    for qubits in qubit_range:
        seeds = [seed + 1000 * qubits + i for i in range(total)]
        circuits = (baseline.random_circuit(qubits, depth, s) for s in seeds)
        schedules = baseline.compile_many(circuits, build_linear(qubits))
        done = 0
        try:
            for part in dataset.generate_dataset(schedules, train):
                yield part
                done += 1
        except CompileError as exc:
            raise CompileError(
                f"qubits {qubits}, circuit {done} (seed {seeds[done]}): {exc}"
            ) from exc


def _cmd_gen_dataset(args) -> int:
    if args.schedule and args.seed is not None:
        raise _UsageError("--schedule and --seed are mutually exclusive")
    skipped: list[str] = []
    if args.schedule:
        fraction = 0.2 if args.eval_fraction is None else args.eval_fraction
        if not 0.0 <= fraction <= 1.0:
            raise _UsageError("--eval-fraction must be within [0, 1]")
        # The split needs the valid count first. This pass keeps no replay, so
        # rendering replays each valid file again and memory stays flat; both
        # passes share the parsed traps and circuits.
        invalid, parsed = set(), ({}, {})
        for index, inputs in enumerate(_load_schedule_inputs(args.schedule, parsed=parsed)):
            report = validate(parse_schedule(*inputs, replay=False))
            if not report.ok:
                invalid.add(index)
                skipped.append(f"schedule {index}: {report.reason}")
        valid = len(args.schedule) - len(invalid)
        schedules = (
            parse_schedule(*inputs, replay=False)
            for index, inputs in enumerate(_load_schedule_inputs(args.schedule, parsed=parsed))
            if index not in invalid
        )
        parts = dataset.generate_dataset(schedules, valid - round(fraction * valid))
    elif args.seed is not None:
        if args.eval_fraction is not None:
            raise _UsageError("--eval-fraction applies only to --schedule files")
        if args.depth < 1:
            raise _UsageError("--depth must be at least 1")
        if args.train_per_qubit < 0 or args.eval_per_qubit < 0:
            raise _UsageError("--train-per-qubit and --eval-per-qubit must not be negative")
        total = args.train_per_qubit + args.eval_per_qubit
        qubit_range = _parse_qubit_range(args.qubits)
        parts = _compiled_entries(args.seed, args.depth, qubit_range, args.train_per_qubit, total)
    else:
        raise _UsageError("need --schedule files or --seed for random generation")
    counts = _write_dataset(args.out_dir, parts)
    for warning in skipped:
        print(f"skipped {warning}", file=sys.stderr)
    print(f"train entries: {counts['train']}")
    print(f"eval entries: {counts['eval']}")
    return 0


def _generation_params(args) -> driver.GenerationParams:
    return driver.GenerationParams(
        temperature=args.temperature,
        max_tokens=args.max_tokens,
        max_consecutive_invalid=args.max_invalid,
        budget_seconds=args.budget_seconds,
    )


def _make_client(args):
    if args.replay:
        client = driver.ReplayCompletionClient(args.replay)
    elif args.endpoint:
        if not args.model:
            raise _UsageError("--endpoint needs --model")
        client = driver.HttpCompletionClient(args.endpoint, args.model)
    else:
        raise _UsageError("need --replay FILE or --endpoint URL")
    if args.record:
        client = driver.RecordingClient(client, args.record)
    return client


def _stats_record(stats: driver.GenerationStats) -> dict:
    # wall_seconds stays out: reports must be byte-stable under replay.
    record = dataclasses.asdict(stats)
    del record["wall_seconds"]
    return record


def _cmd_run_llm(args) -> int:
    graph = _load_trap(args.trap)
    circuit = _load_circuit(args.circuit)
    client = _make_client(args)
    schedule, stats = driver.generate_schedule(
        circuit, graph, client, _generation_params(args)
    )
    if args.out:
        _write_schedule(schedule, args)
    record = _stats_record(stats)
    if args.stats:
        _write(args.stats, json.dumps(record, indent=2) + "\n")
    for name, value in record.items():
        print(f"{name}: {value}")
    print(f"wall_seconds: {stats.wall_seconds:.3f}", file=sys.stderr)
    return 0 if stats.outcome == "complete" else 1


def _split_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers") from None


def _cmd_bench(args) -> int:
    if args.runs < 1:
        raise _UsageError("--runs must be at least 1")
    circuits = [(os.path.basename(path), _load_circuit(path)) for path in args.circuit]
    graphs: list[tuple[str, TrapGraph]] = []
    for path in args.trap or []:
        graphs.append((os.path.basename(path), _load_trap(path)))
    if args.stack_depths or args.junction_distances:
        if not (args.stack_depths and args.junction_distances) or args.per_side is None:
            raise _UsageError(
                "grid mode needs --stack-depths, --junction-distances and --per-side"
            )
        for s in _split_ints(args.stack_depths, "--stack-depths"):
            for d in _split_ints(args.junction_distances, "--junction-distances"):
                graphs.append((f"({s}, {d})", build_branched(args.per_side, s, d)))
    if not graphs:
        raise _UsageError("need --trap files or a branched grid")
    client = _make_client(args)
    rows = driver.run_benchmark(circuits, graphs, client, args.runs, _generation_params(args))
    sys.stdout.write(driver.format_benchmark_rows(rows))
    if args.records:
        _write(args.records, "".join(json.dumps(row) + "\n" for row in rows))
    return 0


def _cmd_report(args) -> int:
    rows = [row for _, row in driver.read_json_objects(args.records, "records")]
    sys.stdout.write(driver.format_benchmark_rows(rows))
    return 0


# -- parser -----------------------------------------------------------------


def _add_client_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--endpoint", help="completion endpoint URL")
    sub.add_argument("--model", help="model name sent to the endpoint")
    sub.add_argument("--replay", help="recorded exchange file to replay")
    sub.add_argument("--record", help="append exchanges to this file")
    sub.add_argument("--temperature", type=float, default=0.7)
    sub.add_argument("--max-tokens", type=int, default=driver.DEFAULT_MAX_TOKENS)
    sub.add_argument(
        "--max-invalid", type=int, default=driver.DEFAULT_MAX_CONSECUTIVE_INVALID
    )
    sub.add_argument(
        "--budget-seconds", type=float, default=driver.DEFAULT_BUDGET_SECONDS
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shuttlekit",
        description="Shuttling-schedule toolkit for segmented ion traps.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    trap = subs.add_parser("trap", help="emit a trap file for a named family")
    trap.add_argument(
        "--family",
        required=True,
        choices=("linear", "branched", "ring", "multi-linear", "four-way"),
    )
    trap.add_argument("--per-side", type=int)
    trap.add_argument("--stack-depth", type=int)
    trap.add_argument("--junction-distance", type=int)
    trap.add_argument("--qubit-count", type=int)
    trap.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY)
    trap.add_argument("--out", default="-")
    trap.set_defaults(func=_cmd_trap)

    comp = subs.add_parser("compile", help="compile a circuit with the heuristic router")
    comp.add_argument("--trap", required=True)
    comp.add_argument("--circuit", required=True)
    comp.add_argument("--out", default="-")
    comp.set_defaults(func=_cmd_compile)

    val = subs.add_parser("validate", help="replay a schedule file")
    val.add_argument("--schedule", required=True)
    val.add_argument("--trap", help="override the trap path in the schedule header")
    val.add_argument("--circuit", help="override the circuit path in the header")
    val.set_defaults(func=_cmd_validate)

    opt = subs.add_parser("optimize", help="remove redundant op pairs from a schedule")
    opt.add_argument("--schedule", required=True)
    opt.add_argument("--trap")
    opt.add_argument("--circuit")
    opt.add_argument("--out", default="-")
    opt.set_defaults(func=_cmd_optimize)

    orc = subs.add_parser("oracle", help="shortest next-gate op sequence (small instances)")
    orc.add_argument("--trap", required=True)
    orc.add_argument("--circuit", required=True)
    orc.set_defaults(func=_cmd_oracle)

    gen = subs.add_parser("gen-dataset", help="build Alpaca JSONL files")
    gen.add_argument("--schedule", action="append", help="schedule file (repeatable)")
    gen.add_argument("--eval-fraction", type=float, help="--schedule eval share (default 0.2)")
    gen.add_argument("--seed", type=int, help="random-circuit mode seed")
    gen.add_argument("--qubits", default="2-4", help="qubit range LO-HI for random mode")
    gen.add_argument("--depth", type=int, default=5)
    gen.add_argument("--train-per-qubit", type=int, default=120)
    gen.add_argument("--eval-per-qubit", type=int, default=30)
    gen.add_argument("--out-dir", required=True)
    gen.set_defaults(func=_cmd_gen_dataset)

    run = subs.add_parser("run-llm", help="drive a completion server to a schedule")
    run.add_argument("--trap", required=True)
    run.add_argument("--circuit", required=True)
    run.add_argument("--out", help="write the (possibly partial) schedule here")
    run.add_argument("--stats", help="write the stats record here as JSON")
    _add_client_flags(run)
    run.set_defaults(func=_cmd_run_llm)

    bench = subs.add_parser("bench", help="best-of-n generation over circuits x traps")
    bench.add_argument("--circuit", action="append", required=True)
    bench.add_argument("--trap", action="append")
    bench.add_argument("--stack-depths", help="comma list for a branched grid")
    bench.add_argument("--junction-distances", help="comma list for a branched grid")
    bench.add_argument("--per-side", type=int)
    bench.add_argument("--runs", type=int, default=10)
    bench.add_argument("--records", help="write row records as JSONL")
    _add_client_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    rep = subs.add_parser("report", help="format benchmark records as a table")
    rep.add_argument("--records", required=True)
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ShuttleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
