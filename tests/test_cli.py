"""The command line end to end: exit codes, messages and files."""

import dataclasses
import json
import re
import tracemalloc

import pytest

from shuttlekit import baseline, cli, driver
from shuttlekit import schedule as schedule_mod
from shuttlekit.baseline import random_circuit
from shuttlekit.circuit import Circuit, Gate, parse_circuit, serialize_circuit
from shuttlekit.dataset import render_output
from shuttlekit.errors import CompileError
from shuttlekit.ops import Translate, format_op
from shuttlekit.schedule import decompose, parse_schedule, schedule_paths
from shuttlekit.trap import parse_trap


def write_inputs(tmp_path, trap_argv, circuit):
    trap_file, circuit_file = tmp_path / "trap.json", tmp_path / "circuit.qasm"
    assert cli.main(["trap", *trap_argv, "--out", str(trap_file)]) == 0
    circuit_file.write_text(serialize_circuit(circuit), encoding="utf-8")
    return str(trap_file), str(circuit_file)


def compile_argv(trap_file, circuit_file, out):
    return ["compile", "--trap", trap_file, "--circuit", circuit_file, "--out", str(out)]


def compile_small(tmp_path):
    """Compile random_circuit(3, 3, 0) on linear(2); returns the schedule file."""
    files = write_inputs(tmp_path, ["--family", "linear", "--per-side", "2"], random_circuit(3, 3, 0))
    schedule = tmp_path / "schedule.txt"
    assert cli.main(compile_argv(*files, schedule)) == 0
    return schedule


def test_compile_then_validate(tmp_path, capsys):
    schedule = compile_small(tmp_path)
    capsys.readouterr()
    assert cli.main(["validate", "--schedule", str(schedule)]) == 0
    assert capsys.readouterr().out.startswith("valid: ")


def test_written_header_paths_resolve_from_the_schedule_folder(tmp_path, monkeypatch, capsys):
    """Relative inputs are named from --out's folder; absolute ones, or any on stdout, as given."""
    monkeypatch.chdir(tmp_path)
    circuit = random_circuit(3, 3, 0)
    _, circuit_file = write_inputs(tmp_path, ["--family", "linear", "--per-side", "2"], circuit)
    (tmp_path / "out").mkdir()
    assert cli.main(compile_argv("trap.json", circuit_file, "out/s.txt")) == 0
    text = (tmp_path / "out" / "s.txt").read_text(encoding="utf-8")
    assert schedule_paths(text) == ("../trap.json", circuit_file)
    capsys.readouterr()
    assert cli.main(compile_argv("trap.json", "circuit.qasm", "-")) == 0
    assert schedule_paths(capsys.readouterr().out) == ("trap.json", "circuit.qasm")

    graph = parse_trap((tmp_path / "trap.json").read_text(encoding="utf-8"))
    slices = decompose(baseline.compile(circuit, graph))
    script = [render_output(piece, graph, piece.circuit) for piece in slices]
    recorder = driver.RecordingClient(driver.MockCompletionClient(script), "exchanges.jsonl")
    driver.generate_schedule(circuit, graph, recorder)
    argv = ["run-llm", "--trap", "trap.json", "--circuit", "circuit.qasm", "--replay",
            "exchanges.jsonl", "--out", "out/r.txt"]
    assert cli.main(argv) == 0
    for written in ("out/s.txt", "out/r.txt"):
        capsys.readouterr()
        assert cli.main(["validate", "--schedule", written]) == 0
        assert capsys.readouterr().out.startswith("valid: ")


def test_compile_that_boxes_itself_in_exits_1_without_traceback(tmp_path, capsys):
    files = write_inputs(
        tmp_path,
        ["--family", "branched", "--per-side", "6", "--stack-depth", "2",
         "--junction-distance", "2"],
        random_circuit(6, 6, 1),
    )
    capsys.readouterr()
    assert cli.main(compile_argv(*files, tmp_path / "schedule.txt")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: junction locks seal gate 22's operands")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_validate_names_the_tampered_op(tmp_path, capsys):
    schedule = compile_small(tmp_path)
    lines = schedule.read_text(encoding="utf-8").splitlines()
    header = sum(line.startswith(("trap ", "circuit ", "placement: ")) for line in lines)
    index = 3
    lines[header + index] = "Translate 0 -> 4"  # 0 and 4 are not adjacent
    schedule.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["validate", "--schedule", str(schedule)]) == 1
    assert capsys.readouterr().out == (
        f"invalid at op {index}: Translate 0 -> 4: vertices 0 and 4 are not adjacent\n"
    )


def test_optimize_refuses_an_invalid_schedule(tmp_path, capsys):
    schedule = compile_small(tmp_path)
    lines = schedule.read_text(encoding="utf-8").splitlines()
    schedule.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")  # drop the last gate
    out = tmp_path / "optimized.txt"
    capsys.readouterr()
    assert cli.main(["optimize", "--schedule", str(schedule), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid schedule: unexecuted gates remain (")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_optimize_removes_an_injected_back_and_forth(tmp_path, capsys):
    schedule = compile_small(tmp_path)
    original = schedule.read_bytes()
    text = original.decode("utf-8")
    trap_path, circuit_path = (tmp_path / name for name in schedule_paths(text))
    graph = parse_trap(trap_path.read_text(encoding="utf-8"))
    circuit = parse_circuit(circuit_path.read_text(encoding="utf-8"))
    state = parse_schedule(text, graph, circuit).placement
    vertex = next(v for v, chain in enumerate(state.chains) if chain)
    free = next(n for n in graph.neighbors(vertex) if not state.chains[n])
    bounce = [format_op(Translate(vertex, free)), format_op(Translate(free, vertex))]
    lines = text.splitlines()
    first_op = sum(line.startswith(("trap ", "circuit ", "placement: ")) for line in lines)
    lines[first_op:first_op] = bounce
    injected = tmp_path / "injected.txt"
    injected.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "optimized.txt"
    capsys.readouterr()
    assert cli.main(["optimize", "--schedule", str(injected), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "removed 2 operations\n"
    assert out.read_bytes() == original


def test_run_llm_that_leaves_a_junction_occupied_is_not_complete(tmp_path, capsys):
    """A final slice of legal ops that parks a chain on a junction fails the run."""
    circuit = Circuit(3, (Gate(1, (0, 1)),))
    trap_argv = ["--family", "branched", "--per-side", "2", "--stack-depth", "1",
                 "--junction-distance", "1"]
    trap_file, circuit_file = write_inputs(tmp_path, trap_argv, circuit)
    replay = tmp_path / "exchanges.jsonl"
    parked = "Translate 2 -> 1\n\nExecute Gate 1\n"  # qubit 2 onto junction 1
    client = driver.RecordingClient(driver.MockCompletionClient([parked] * 10), str(replay))
    graph = parse_trap((tmp_path / "trap.json").read_text(encoding="utf-8"))
    driver.generate_schedule(circuit, graph, client)
    argv = ["run-llm", "--trap", trap_file, "--circuit", circuit_file, "--replay", str(replay)]
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path / "schedule.txt")]) == 1
    captured = capsys.readouterr()
    assert "outcome: complete" not in captured.out
    assert "outcome: failed" in captured.out
    assert "junction 1 occupied at the end" in captured.out
    assert "Traceback" not in captured.err


STATS_FIELDS = [
    "outcome", "gates_executed", "ops_count", "retries", "tokens_final", "tokens_total",
    "failure_reason",
]


def test_run_llm_writes_and_prints_the_stats_record_without_wall_seconds(tmp_path, capsys):
    """--stats holds every GenerationStats field but wall_seconds, in order; stdout the same."""
    circuit = random_circuit(3, 3, 0)
    trap_file, circuit_file = write_inputs(
        tmp_path, ["--family", "linear", "--per-side", "2"], circuit
    )
    graph = parse_trap((tmp_path / "trap.json").read_text(encoding="utf-8"))
    slices = decompose(baseline.compile(circuit, graph))
    script = ["Execute Gate 0\n"] + [render_output(p, graph, p.circuit) for p in slices]
    replay = tmp_path / "exchanges.jsonl"
    driver.generate_schedule(
        circuit, graph, driver.RecordingClient(driver.MockCompletionClient(script), str(replay))
    )
    stats = tmp_path / "stats.json"
    argv = ["run-llm", "--trap", trap_file, "--circuit", circuit_file, "--replay", str(replay)]
    capsys.readouterr()
    assert cli.main([*argv, "--stats", str(stats)]) == 0
    record = json.loads(stats.read_text(encoding="utf-8"))
    names = [f.name for f in dataclasses.fields(driver.GenerationStats)]
    assert list(record) == STATS_FIELDS == [name for name in names if name != "wall_seconds"]
    assert (record["outcome"], record["retries"]) == ("complete", 1)
    captured = capsys.readouterr()
    assert captured.out == "".join(f"{name}: {value}\n" for name, value in record.items())
    assert re.fullmatch(r"wall_seconds: \d+\.\d{3}\n", captured.err)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--seed", "1", "--qubits", "2", "--depth", "0"], "--depth must be at least 1"),
        (["--seed", "1", "--eval-per-qubit", "-3"], "--train-per-qubit and --eval-per-qubit"),
        (["--seed", "1", "--train-per-qubit", "-1"], "--train-per-qubit and --eval-per-qubit"),
        (["--schedule", "SCHEDULE", "--eval-fraction", "2"], "--eval-fraction must be within"),
        (
            ["--seed", "1", "--qubits", "2", "--train-per-qubit", "4", "--eval-per-qubit", "1",
             "--eval-fraction", "2"],
            "--eval-fraction applies only to --schedule",
        ),
    ],
    ids=["depth0", "negative_eval", "negative_train", "eval_fraction2", "seed_eval_fraction"],
)
def test_gen_dataset_rejects_bad_counts_as_usage_errors(tmp_path, capsys, argv, message):
    schedule = compile_small(tmp_path)
    argv = [str(schedule) if arg == "SCHEDULE" else arg for arg in argv]
    capsys.readouterr()
    assert cli.main(["gen-dataset", *argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {message}")


def test_a_failed_gen_dataset_names_the_circuit_and_leaves_the_out_dir_as_it_was(
    tmp_path, capsys, monkeypatch
):
    """A CompileError after one rendered schedule writes nothing and names the circuit."""
    compile_many = baseline.compile_many
    gave_up = CompileError("the router gave up on gate 1")

    def one_then_fail(circuits, graph):
        circuits = iter(circuits)
        yield next(compile_many([next(circuits)], graph))
        raise gave_up

    monkeypatch.setattr(cli.baseline, "compile_many", one_then_fail)
    out = tmp_path / "out"
    out.mkdir()
    (out / "train.jsonl").write_bytes(b'{"kept": true}\n')
    fresh = tmp_path / "fresh"
    argv = ["gen-dataset", "--seed", "1", "--qubits", "2-3", "--train-per-qubit", "2",
            "--eval-per-qubit", "1", "--out-dir"]
    message = "qubits 2, circuit 1 (seed 2002): the router gave up on gate 1"
    for directory in (out, fresh):
        assert cli.main([*argv, str(directory)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in out.iterdir()] == ["train.jsonl"]
    assert (out / "train.jsonl").read_bytes() == b'{"kept": true}\n'
    assert not fresh.exists()
    args = cli.build_parser().parse_args([*argv, str(out)])
    with pytest.raises(CompileError) as failed:
        args.func(args)
    assert str(failed.value) == message and failed.value.__cause__ is gave_up


def test_gen_dataset_skips_an_invalid_schedule_file_and_replays_each_file_once(
    tmp_path, capsys, monkeypatch
):
    schedule = compile_small(tmp_path)
    lines = schedule.read_text(encoding="utf-8").splitlines()
    header = sum(line.startswith(("trap ", "circuit ", "placement: ")) for line in lines)
    lines[header + 3] = "Translate 0 -> 4"  # 0 and 4 are not adjacent
    tampered = tmp_path / "tampered.txt"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
    replays = []
    replay = schedule_mod.replay
    monkeypatch.setattr(schedule_mod, "replay", lambda *args: replays.append(1) or replay(*args))
    capsys.readouterr()
    argv = ["gen-dataset", "--schedule", str(schedule), "--schedule", str(tampered),
            "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert len(replays) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "skipped schedule 1: Translate 0 -> 4: vertices 0 and 4 are not adjacent\n"
    )
    gates = len(random_circuit(3, 3, 0).gates)
    assert captured.out == f"train entries: {gates}\neval entries: 0\n"


@pytest.mark.parametrize(
    "fraction,train,held_out",
    [("0.5", 3, 2), ("0", 5, 0), ("1", 0, 5)],
    ids=["half_rounds_to_even", "none", "all"],
)
def test_gen_dataset_splits_schedule_files_at_the_rounded_eval_share(
    tmp_path, capsys, fraction, train, held_out
):
    """Of five valid schedules the last round(fraction * 5) go to eval; round(2.5) is 2."""
    schedule = compile_small(tmp_path)
    out = tmp_path / "out"
    argv = ["gen-dataset", *["--schedule", str(schedule)] * 5, "--eval-fraction", fraction]
    capsys.readouterr()
    assert cli.main([*argv, "--out-dir", str(out)]) == 0
    gates = len(random_circuit(3, 3, 0).gates)
    assert capsys.readouterr().out == (
        f"train entries: {train * gates}\neval entries: {held_out * gates}\n"
    )
    for split, count in (("train", train), ("eval", held_out)):
        assert len((out / f"{split}.jsonl").read_bytes().splitlines()) == count * gates


@pytest.mark.parametrize("empty", ["train", "eval"])
def test_gen_dataset_seed_mode_writes_an_empty_split_of_zero_per_qubit(tmp_path, capsys, empty):
    out = tmp_path / "out"
    counts = {"train": "2", "eval": "1", empty: "0"}
    argv = ["gen-dataset", "--seed", "1", "--qubits", "2", "--train-per-qubit", counts["train"],
            "--eval-per-qubit", counts["eval"], "--out-dir", str(out)]
    assert cli.main(argv) == 0
    assert f"{empty} entries: 0\n" in capsys.readouterr().out
    for split in ("train", "eval"):
        assert ((out / f"{split}.jsonl").read_bytes() == b"") == (split == empty)


def test_gen_dataset_peak_memory_does_not_grow_with_the_dataset(tmp_path, capsys):
    """Four times the schedules raise the traced peak by less than 1 MiB: entries are streamed."""
    peaks = []
    for n in (10, 40):
        argv = ["gen-dataset", "--seed", "1", "--qubits", "2-3", "--train-per-qubit", str(n),
                "--eval-per-qubit", str(n // 4), "--out-dir", str(tmp_path / str(n))]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert capsys.readouterr().out.count("train entries: ") == 2
    assert peaks[1] - peaks[0] < 2**20, peaks


def test_bench_with_no_runs_is_a_usage_error(tmp_path, capsys):
    trap_file, circuit_file = write_inputs(
        tmp_path, ["--family", "linear", "--per-side", "2"], random_circuit(3, 3, 0)
    )
    replay = tmp_path / "exchanges.jsonl"
    replay.write_text("", encoding="utf-8")
    argv = ["bench", "--circuit", circuit_file, "--trap", trap_file, "--replay", str(replay)]
    capsys.readouterr()
    assert cli.main([*argv, "--runs", "0"]) == 2
    assert capsys.readouterr().err == "usage error: --runs must be at least 1\n"


def test_bench_builds_a_branched_grid(tmp_path, capsys):
    circuit_file = tmp_path / "circuit.qasm"
    circuit_file.write_text(serialize_circuit(random_circuit(3, 3, 0)), encoding="utf-8")
    replay = tmp_path / "exchanges.jsonl"
    replay.write_text("", encoding="utf-8")  # every run fails at its first request
    records = tmp_path / "records.jsonl"
    argv = ["bench", "--circuit", str(circuit_file), "--replay", str(replay), "--runs", "1",
            "--stack-depths", "1,2", "--junction-distances", "1,2"]
    capsys.readouterr()
    assert cli.main([*argv, "--per-side", "2", "--records", str(records)]) == 0
    rows = [row for _, row in driver.read_json_objects(str(records), "records")]
    assert [(row["trap"], row["result"]) for row in rows] == [
        ("(1, 1)", "failed (0)"),
        ("(1, 2)", "failed (0)"),
        ("(2, 1)", "failed (0)"),
        ("(2, 2)", "failed (0)"),
    ]
    assert "(2, 2)" in capsys.readouterr().out
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "usage error: grid mode needs --stack-depths, --junction-distances and --per-side\n"
    )
    assert cli.main([*argv, "--per-side", "0"]) == 1  # given, so the builder names the fault
    assert capsys.readouterr().err == (
        "error: storage_per_side must be at least junction_distance\n"
    )


@pytest.mark.parametrize(
    "line,reason",
    [
        ("[1, 2]", "not a JSON object"),
        ("{oops", "Expecting property name"),
        ('{"n": ' + "9" * 5000 + "}", "Exceeds the limit"),
        ("[" * 200_000, "maximum recursion depth exceeded"),
    ],
    ids=["list", "not_json", "long_integer", "deep_nesting"],
)
def test_report_names_a_malformed_records_line(tmp_path, capsys, line, reason):
    records = tmp_path / "records.jsonl"
    records.write_text('{"circuit": "c", "result": "5"}\n\n' + line + "\n", encoding="utf-8")
    assert cli.main(["report", "--records", str(records)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: records line 3: {reason}")


@pytest.mark.parametrize("which", ["trap", "circuit", "schedule", "records"])
def test_a_file_that_is_not_utf8_is_named_without_traceback(tmp_path, capsys, which):
    trap_file, circuit_file = write_inputs(
        tmp_path, ["--family", "linear", "--per-side", "2"], random_circuit(3, 3, 0)
    )
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe bad")
    argv = {
        "trap": compile_argv(str(bad), circuit_file, tmp_path / "schedule.txt"),
        "circuit": compile_argv(trap_file, str(bad), tmp_path / "schedule.txt"),
        "schedule": ["validate", "--schedule", str(bad)],
        "records": ["report", "--records", str(bad)],
    }[which]
    capsys.readouterr()
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad} is not UTF-8 text: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "optimize", "gen-dataset"])
def test_a_nul_byte_in_a_schedule_header_path_is_named_without_traceback(
    tmp_path, capsys, command
):
    schedule = compile_small(tmp_path)
    lines = schedule.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("trap ")
    lines[0] = "trap t\0.json"
    schedule.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = {
        "validate": ["validate", "--schedule", str(schedule)],
        "optimize": ["optimize", "--schedule", str(schedule), "--out", str(tmp_path / "o.txt")],
        "gen-dataset": ["gen-dataset", "--schedule", str(schedule), "--out-dir", str(tmp_path / "d")],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot open ")
    assert "embedded null byte" in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
