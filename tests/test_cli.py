"""The command line end to end: exit codes, messages and files."""

import pytest

from shuttlekit import cli
from shuttlekit.baseline import random_circuit
from shuttlekit.circuit import serialize_circuit


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


@pytest.mark.parametrize(
    "line,reason",
    [("[1, 2]", "not a JSON object"), ("{oops", "Expecting property name")],
    ids=["list", "not_json"],
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
