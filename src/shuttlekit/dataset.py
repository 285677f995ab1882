"""Instruction/output rendering and Alpaca-format dataset assembly.

One data entry covers the ops between two consecutive gate executions: the
instruction describes the trap, the rules, and the current state; the
output lists the ops with a state echo after each one and stops at the
`Execute Gate` line. Every echo renders a state that the schedule's one
replay recorded (see the schedule module docstring), so rendering steps no
op and cannot disagree with replay. Wording lives in a versioned template
file, so the golden snapshots survive refactors, cut once per process into
the literal pieces around its `$` fields.

The render memo. Each trap graph object carries one, made on its first
render and kept in the graph's instance dict, so it lives and is freed
with the graph and leaves the graph's eq, hash and repr alone. It is a
pair: the instruction up to its "Qubit positions" block, filled once, and
a dict from an encoded state (chains, locks) to its `qubit q at [v, p]`
lines (qubit q's at index q), its "Qubit positions" block and its
bulleted shuttling-op block ("" when none is legal). Every render on one
graph shares it, across schedules, dataset runs and driver runs; the gate
lines and ready `Execute Gate` bullets, which depend on the circuit too,
are joined to that text per echo.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from importlib.resources import files
from string import Template

from . import kernel
from . import ops as op_mod
from .circuit import Circuit, Gate
from .errors import OutputParseError, RenderError
from .ops import ShuttleOp
from .schedule import EntrySlice, Schedule, decompose
from .state import TrapState, position_lines
from .trap import ELIGIBILITY_FLAGS, TrapGraph, VertexKind

_KIND_LABELS = {
    VertexKind.GATE: "gate segment",
    VertexKind.STORAGE: "storage",
    VertexKind.JUNCTION: "junction",
}


# The template's fields in the order the renderer fills them: the three
# that depend on the graph alone, then the four that depend on the state.
_FIELDS = (
    "capacity",
    "vertex_block",
    "edge_block",
    "position_block",
    "first_layer_block",
    "next_layer_block",
    "allowed_block",
)


def _cut(text: str) -> tuple[str, ...]:
    """The literal pieces of template text around its `$` fields.

    Raises RenderError for a `$` that names no field, and unless the fields
    are exactly _FIELDS, in order.
    """
    pieces, fields, pos = [], [], 0
    for match in Template.pattern.finditer(text):
        name = match.group("named") or match.group("braced")
        if name is None:
            raise RenderError(
                f"instruction template has a $ that names no field at offset {match.start()}"
            )
        fields.append(name)
        pieces.append(text[pos : match.start()])
        pos = match.end()
    pieces.append(text[pos:])
    if tuple(fields) != _FIELDS:
        raise RenderError(
            f"instruction template has fields {fields}; the renderer fills {list(_FIELDS)}, "
            "in that order"
        )
    return tuple(pieces)


@lru_cache(maxsize=1)
def _template() -> tuple[str, ...]:
    """The instruction template's eight literal pieces around its fields."""
    return _cut(files("shuttlekit").joinpath("templates/instruction_v1.txt").read_text())


def _bullets(lines: list[str]) -> str:
    if not lines:
        return "- none"
    return "\n".join([f"- {line}" for line in lines])


def _vertex_lines(graph: TrapGraph) -> list[str]:
    lines = []
    for vid in graph.vertex_ids:
        vertex = graph.vertices[vid]
        label = _KIND_LABELS[vertex.kind]
        flags = [f for f in ELIGIBILITY_FLAGS if f in vertex.eligibility]
        if flags:
            label += ", allows " + ", ".join(flags)
        lines.append(f"segment {vid}: {label}")
    return lines


def _layout(graph: TrapGraph) -> str:
    """The instruction up to its "Qubit positions" block, graph fields filled."""
    head, after_capacity, after_vertices, after_edges = _template()[:4]
    edges = [f"{a} -- {b}" for a, b in sorted(graph.edges)]
    return "".join(
        (
            head,
            str(graph.capacity),
            after_capacity,
            _bullets(_vertex_lines(graph)),
            after_vertices,
            _bullets(edges),
            after_edges,
        )
    )


def _render_memo(graph: TrapGraph) -> tuple[str, dict]:
    """The render memo of `graph`, made on first use (see the module docstring)."""
    memo = graph.__dict__.get("_render_memo")
    if memo is None:
        memo = graph.__dict__["_render_memo"] = (_layout(graph), {})
    return memo


def _op_block(codes) -> str:
    """The bullets of kernel op codes, one line each."""
    return "\n".join(["- " + op_mod.format_op(code) for code in codes])


def _state_text(graph: TrapGraph, states: dict, state: TrapState) -> tuple[list[str], str, str]:
    """The memo entry of `state`, rendered and stored on a miss."""
    entry = states.get(state)
    if entry is None:
        lines = position_lines(state)
        shuttles = _op_block(kernel.successors(graph.encoded, *state))
        entry = states[state] = (lines, _bullets(lines), shuttles)
    return entry


def _check_qubits(chains: tuple, circuit: Circuit) -> None:
    """Raise RenderError unless the chains hold exactly the circuit's qubits 0..n-1."""
    qubits = sorted([q for chain in chains for q in chain])
    if qubits != list(range(circuit.qubit_count)):
        raise RenderError(
            f"state holds qubits {qubits}, circuit expects 0..{circuit.qubit_count - 1}"
        )


def _gate_lines(gates: tuple[Gate, ...], spots: list[str]) -> str:
    lines = [f"- gate {g.id}: " + ", ".join([spots[q] for q in g.qubits]) for g in gates]
    return "\n".join(lines) if lines else "- none"


def _allowed_block(graph: TrapGraph, shuttles: str, chains: tuple, gates: tuple) -> str:
    """The "Allowed operations" bullets: the shuttling block, then the ready gates."""
    ready = kernel.ready_gates(graph.encoded, chains, gates)
    if not ready:
        return shuttles or "- none"
    executes = _op_block([(kernel.EXECUTE, g, -1) for g in ready])
    return f"{shuttles}\n{executes}" if shuttles else executes


def render_instruction(graph: TrapGraph, state: TrapState, circuit: Circuit) -> str:
    """Deterministic instruction text for one generation step.

    The trap layout, the rules, the goal, and four enumerations: qubit
    positions, first-layer gates, the gates one execution away, and the
    allowed operations, through the graph's render memo. A state that does
    not hold exactly the circuit's qubits raises RenderError.
    """
    chains = state.chains
    _check_qubits(chains, circuit)
    layout, states = _render_memo(graph)
    spots, positions, shuttles = _state_text(graph, states, state)
    first_layer = circuit.first_layer
    after_positions, after_first, after_next, tail = _template()[4:]
    return "".join(
        (
            layout,
            positions,
            after_positions,
            _gate_lines(first_layer, spots),
            after_first,
            _bullets(
                [
                    f"gate {g.id} on qubits " + ", ".join(str(q) for q in g.qubits)
                    for g in circuit.next_executable
                ]
            ),
            after_next,
            _allowed_block(graph, shuttles, chains, first_layer),
            tail,
        )
    )


def render_output(slice: EntrySlice, graph: TrapGraph, circuit: Circuit) -> str:
    """Expected model output for one slice: op lines with per-op state echoes.

    Every op except the final `Execute Gate` is followed by an echo of the
    state `slice.states` holds for it: the qubit positions, the first-layer
    gates, and the operations allowed next. `circuit` must be
    slice.circuit. A slice whose only `Execute Gate` is not its last op, or
    that lacks one state per shuttling op, or whose state does not hold
    exactly the circuit's qubits, raises RenderError.
    """
    executes = [i for i, op in enumerate(slice.ops) if op.kind == kernel.EXECUTE]
    if executes != [len(slice.ops) - 1] or len(slice.states) != len(slice.ops) - 1:
        raise RenderError(
            "a slice must end in its only Execute Gate, with one state per shuttling op; "
            f"this one has {len(slice.ops)} ops with Execute Gates at indices {executes} "
            f"and {len(slice.states)} states"
        )
    *moves, last = slice.ops
    _check_qubits(slice.state.chains, circuit)
    states = _render_memo(graph)[1]
    first_layer = circuit.first_layer
    blocks: list[str] = []
    for op, state in zip(moves, slice.states):
        spots, positions, shuttles = _state_text(graph, states, state)
        lines = [op_mod.format_op(op), "Qubit positions:", positions, "First-layer gates:"]
        lines.append(_gate_lines(first_layer, spots))
        lines.append("Allowed operations:")
        lines.append(_allowed_block(graph, shuttles, state.chains, first_layer))
        blocks.append("\n".join(lines))
    blocks.append(op_mod.format_op(last))
    return "\n\n".join(blocks) + "\n"


# One reasoning span: an opening tag up to its closing tag, or to the end.
_THINK = re.compile(r"<think\b[^>]*>.*?(?:</think\s*>|\Z)", re.IGNORECASE | re.DOTALL)
# On "\n" + text, each line that starts like an operation, from its first word;
# a literal first character is what lets sre skip fast from line to line.
_OP_SHAPED = re.compile(r"\n(?![ \t-])[^\S\n]*((?:Translate|Separate|Merge|Swap|Execute)\b[^\n]*)")


def parse_output(text: str) -> list[ShuttleOp]:
    """Extract the op sequence from model output, hostile input expected.

    Reasoning spans go first. A line is what `str.splitlines` cuts, and the
    output is scanned once for the column-0 lines that start like an
    operation; echo blocks and prose are ignored, and a malformed op line
    is an error with its line number. Everything after the first `Execute
    Gate` line is dropped. Legality is left to the caller's replay.
    """
    if "<" in text:  # every reasoning span starts with it
        text = _THINK.sub("", text)
    if not text.isascii() or any(brk in text for brk in "\r\x0b\x0c\x1c\x1d\x1e"):
        text = "\n".join(text.splitlines())
    text = "\n" + text
    ops: list[ShuttleOp] = []
    for match in _OP_SHAPED.finditer(text):
        line = match.group(1).rstrip()
        try:
            op = op_mod.parse_op(line)
        except ValueError:
            lineno = text.count("\n", 0, match.start(1))
            raise OutputParseError(f"line {lineno}: malformed operation {line!r}") from None
        ops.append(op)
        if op.kind == kernel.EXECUTE:
            return ops
    raise OutputParseError("output contains no Execute Gate line")


@dataclass(frozen=True)
class DataEntry:
    instruction: str
    output: str


def generate_dataset(
    schedules: Iterable[Schedule], train_count: int
) -> Iterator[tuple[str, list[DataEntry]]]:
    """Render each slice of each schedule into one DataEntry, one schedule at a time.

    Lazy: for each schedule, in order, yields its split, "train" or "eval",
    and its entries, and keeps neither. Each schedule renders from the
    slices it holds; an invalid one raises ScheduleValidationError. The
    split is per whole schedule, the first `train_count` for training, yet
    identical entries can land in both splits: two schedules can reach the
    same state with the same gates ahead.
    """
    for index, schedule in enumerate(schedules):
        graph = schedule.graph
        entries = []
        for piece in decompose(schedule):
            instruction = render_instruction(graph, piece.state, piece.circuit)
            output = render_output(piece, graph, piece.circuit)
            entries.append(DataEntry(instruction, output))
        yield ("train" if index < train_count else "eval"), entries


def to_jsonl(entries: tuple[DataEntry, ...] | list[DataEntry]) -> str:
    """Alpaca-format lines: instruction, empty input, output, one encoder for all."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    lines = [
        encode({"instruction": e.instruction, "input": "", "output": e.output}) for e in entries
    ]
    return "\n".join(lines) + ("\n" if lines else "")
