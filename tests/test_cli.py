"""The command line end to end: exit codes, messages and files."""

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
