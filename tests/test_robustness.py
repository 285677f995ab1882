"""Seeded byte-level mutations of every input format: a ShuttleError or a result.

Each format starts from a well-formed text, takes a few random byte edits
per mutant (overwrite, delete, insert, duplicate a span, or swap in a
digit), and goes through the function that reads it. Whatever the bytes,
that function returns or raises ShuttleError with a message; any other
exception is a traceback a user would see, and fails the test. The seed
is fixed, so a failure reproduces.
"""

import json
import random

import pytest

from shuttlekit import baseline, driver, trap
from shuttlekit.circuit import parse_circuit, serialize_circuit
from shuttlekit.dataset import parse_output, render_output
from shuttlekit.errors import ShuttleError
from shuttlekit.schedule import decompose, parse_schedule, replay, serialize_schedule

SEED = 20251218
MUTANTS = 400

GRAPH = trap.build_eval_layout("ring", 4)
CIRCUIT = baseline.random_circuit(4, 4, 0)
SCHEDULE = baseline.compile(CIRCUIT, GRAPH)
SLICES = decompose(SCHEDULE)


def mutate(data: bytes, rng: random.Random) -> bytes:
    """`data` after one to three random byte edits, half of them to digits."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(out) + 1)
        kind = rng.randrange(6)
        digits = [i for i, byte in enumerate(out) if 48 <= byte <= 57]
        if kind == 0 and at < len(out):
            out[at] = rng.randrange(256)
        elif kind == 1 and at < len(out):
            del out[at : at + rng.randint(1, 8)]
        elif kind == 2:
            out[at:at] = bytes([rng.randrange(256)])
        elif kind == 3:
            out[at:at] = out[at : at + rng.randint(1, 16)]
        elif kind == 4 and digits:
            out[rng.choice(digits)] = rng.randrange(48, 58)
        else:
            at = rng.choice(digits) if digits else at
            out[at:at] = rng.choice([b"0", b"9", b"-", b"99999999999999999999", b"1e9", b"\n"])
    return bytes(out)


def mutants(text: str, salt: int):
    """MUTANTS seeded mutations of `text`, as bytes."""
    rng = random.Random(SEED + salt)
    data = text.encode("utf-8")
    return [mutate(data, rng) for _ in range(MUTANTS)]


def survives(read, data: bytes) -> None:
    """`read` on `data` returns or raises ShuttleError, never anything else."""
    try:
        read(data)
    except ShuttleError as exc:
        assert str(exc), data


def test_mutated_trap_files():
    for data in mutants(trap.serialize_trap(GRAPH), 1):
        survives(lambda d: trap.parse_trap(d.decode("utf-8", "replace")), data)


def test_mutated_qasm():
    for data in mutants(serialize_circuit(CIRCUIT), 2):
        survives(lambda d: parse_circuit(d.decode("utf-8", "replace")), data)


def test_mutated_schedule_files():
    text = serialize_schedule(SCHEDULE, "trap.json", "circuit.qasm")
    for data in mutants(text, 3):
        survives(lambda d: parse_schedule(d.decode("utf-8", "replace"), GRAPH, CIRCUIT), data)


def test_mutated_model_output_parses_and_replays():
    longest = sorted(SLICES, key=lambda piece: len(piece.ops))[-4:]
    for index, piece in enumerate(longest):
        output = render_output(piece, GRAPH, piece.circuit)

        def read(data, piece=piece):
            ops = parse_output(data.decode("utf-8", "replace"))
            replay(GRAPH, piece.state, piece.circuit, ops)

        for data in mutants(output, 10 + index)[: MUTANTS // 4]:
            survives(read, data)


@pytest.fixture
def exchanges(tmp_path):
    """A recorded run of the driver over the compiled schedule's outputs."""
    outputs = [render_output(piece, GRAPH, piece.circuit) for piece in SLICES]
    path = tmp_path / "exchanges.jsonl"
    recorder = driver.RecordingClient(driver.MockCompletionClient(outputs), str(path))
    schedule, _ = driver.generate_schedule(CIRCUIT, GRAPH, recorder)
    assert schedule.ops == SCHEDULE.ops
    return path


def test_mutated_replay_files(exchanges, tmp_path):
    mutant = tmp_path / "mutant.jsonl"

    def read(data):
        mutant.write_bytes(data)
        driver.generate_schedule(CIRCUIT, GRAPH, driver.ReplayCompletionClient(str(mutant)))

    for data in mutants(exchanges.read_text(encoding="utf-8"), 4)[: MUTANTS // 4]:
        survives(read, data)


def test_mutated_records_files(tmp_path):
    rows = [
        {"trap": "ring", "circuit": "c.qasm", "complete": 2, "runs": 3, "mean_ops": 41.5},
        {"trap": "(2, 1)", "circuit": "d.qasm", "complete": 0, "runs": 3, "mean_ops": None},
    ]
    mutant = tmp_path / "records.jsonl"

    def read(data):
        mutant.write_bytes(data)
        records = [row for _, row in driver.read_json_objects(str(mutant), "records")]
        driver.format_benchmark_rows(records)

    for data in mutants("".join(json.dumps(row) + "\n" for row in rows), 5):
        survives(read, data)
