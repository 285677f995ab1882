"""Golden snapshots of the dataset the CLI writes and of rendered slice text."""

import hashlib
from pathlib import Path

from shuttlekit import baseline, cli, trap
from shuttlekit.circuit import parse_circuit
from shuttlekit.dataset import render_instruction, render_output
from shuttlekit.schedule import decompose, parse_schedule, schedule_paths

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"

# sha256 of the files written by
#   gen-dataset --seed 1 --qubits 2-3 --train-per-qubit 4 --eval-per-qubit 1
# A change here changes the training data: regenerate only on purpose.
GOLDEN = {
    "train.jsonl": "4b27017c351c14ea02e2cee2a70881754ba5a60744cdae7f6f64a929994fcb2e",
    "eval.jsonl": "80d5d4b19bb2200686df0b91689b52765d569cd030dc4d64fb1c8499820fde18",
}


def test_gen_dataset_matches_golden_snapshot(tmp_path, capsys):
    argv = [
        "gen-dataset", "--seed", "1", "--qubits", "2-3",
        "--train-per-qubit", "4", "--eval-per-qubit", "1",
        "--out-dir", str(tmp_path),
    ]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "train entries: 78\neval entries: 18\n"
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN


# sha256 over render_instruction, then render_output, of every slice of the
# pinned schedules perfbench/inputs/schedule_d200.txt and schedule_d400.txt
# and of baseline.compile(random_circuit(4, 6, s), ring(4)) for s = 0, 1, 2.
# The ring slices include states with junction locks set, which the linear
# traps of the snapshot above never reach.
RENDER_SHA256 = "b3c4f83c2902d96ff6a4f2619a9014ae7ef157a47ea0076a2cf45240f9d3622a"


def test_rendered_slices_with_junction_locks_match_golden_digest():
    schedules = []
    for name in ("schedule_d200.txt", "schedule_d400.txt"):
        text = (INPUTS / name).read_text(encoding="utf-8")
        trap_name, circuit_name = schedule_paths(text)
        graph = trap.parse_trap((INPUTS / trap_name).read_text(encoding="utf-8"))
        circuit = parse_circuit((INPUTS / circuit_name).read_text(encoding="utf-8"))
        schedules.append(parse_schedule(text, graph, circuit))
    ring = trap.build_eval_layout("ring", 4)
    for seed in range(3):
        schedules.append(baseline.compile(baseline.random_circuit(4, 6, seed), ring))
    digest = hashlib.sha256()
    locked = 0
    for schedule in schedules:
        for piece in decompose(schedule):
            locked += any(lock != -1 for lock in piece.state.locks)
            digest.update(render_instruction(schedule.graph, piece.state, piece.circuit).encode())
            digest.update(render_output(piece, schedule.graph, piece.circuit).encode())
    assert locked == 40
    assert digest.hexdigest() == RENDER_SHA256
