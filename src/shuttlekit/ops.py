"""The five schedule operations: legality reasons, stepping, enumeration, text.

The kernel alone states what the ops do: `apply` steps a shuttling op
through kernel.transition on the state's own encoding and checks an Execute
Gate through kernel.ready_gates; `shuttle_ops` lists the ops
kernel.successors gives, and `allowed_ops` adds those kernel.ready_gates
gives. violation() words the same rules for one op, so that a rejection
names the condition it failed, and tests hold the three equal. `encode_op`
and `decode_op` convert between ops and kernel op codes, and `format_op` is
the one op formatter: the dataset renderer formats each kernel op code it
lists as `format_op(decode_op(code))`, once per render memo. Executing a
gate leaves the chain state untouched; callers advance the circuit
separately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import kernel
from .circuit import Circuit
from .errors import IllegalOperationError
from .state import TrapState
from .trap import TrapGraph


@dataclass(frozen=True)
class Translate:
    src: int
    dst: int


@dataclass(frozen=True)
class Separate:
    at: int


@dataclass(frozen=True)
class Merge:
    at: int


@dataclass(frozen=True)
class Swap:
    at: int


@dataclass(frozen=True)
class ExecuteGate:
    gate: int


ShuttleOp = Translate | Separate | Merge | Swap | ExecuteGate

# The op type of each kernel op kind (kernel.TRANSLATE .. kernel.EXECUTE), by kind.
_OP_TYPES: tuple[type, ...] = (Translate, Separate, Merge, Swap, ExecuteGate)


def _translate_violation(state: TrapState, graph: TrapGraph, src: int, dst: int) -> str | None:
    if src not in graph.vertices or dst not in graph.vertices:
        return f"no vertex pair ({src}, {dst})"
    if tuple(sorted((src, dst))) not in graph.edges:
        return f"vertices {src} and {dst} are not adjacent"
    if not state.occupied(src):
        return f"vertex {src} is empty"
    if state.occupied(dst):
        return f"vertex {dst} is occupied"
    if graph.is_junction(dst) and state.locks[dst] == src:
        return f"junction {dst} was left toward {src} and cannot be re-entered from there"
    return None


def _lateral_violation(graph: TrapGraph, at: int, flag: str) -> str | None:
    if at not in graph.vertices:
        return f"no vertex {at}"
    if not graph.allows(at, flag):
        return f"vertex {at} does not allow {flag}"
    pair = graph.lateral_pair(at)
    if pair is None:
        return f"vertex {at} has no lateral pair"
    for side in pair:
        if graph.is_junction(side):
            return f"lateral vertex {side} is a junction"
    return None


def _separate_violation(state: TrapState, graph: TrapGraph, at: int) -> str | None:
    violation = _lateral_violation(graph, at, "separate")
    if violation:
        return violation
    if len(state.chain_at(at)) < 2:
        return f"vertex {at} holds fewer than two qubits"
    for side in graph.lateral_pair(at):
        if state.occupied(side):
            return f"lateral vertex {side} is occupied"
    return None


def _merge_violation(state: TrapState, graph: TrapGraph, at: int) -> str | None:
    violation = _lateral_violation(graph, at, "merge")
    if violation:
        return violation
    if state.occupied(at):
        return f"vertex {at} is occupied"
    left, right = graph.lateral_pair(at)
    for side in (left, right):
        if not state.occupied(side):
            return f"lateral vertex {side} is empty"
    combined = len(state.chain_at(left)) + len(state.chain_at(right))
    if combined > graph.capacity:
        return f"combined chain of {combined} exceeds capacity {graph.capacity}"
    return None


def _swap_violation(state: TrapState, graph: TrapGraph, at: int) -> str | None:
    if at not in graph.vertices:
        return f"no vertex {at}"
    if not graph.allows(at, "swap"):
        return f"vertex {at} does not allow swap"
    if len(state.chain_at(at)) < 2:
        return f"vertex {at} holds fewer than two qubits"
    return None


def _execute_violation(
    state: TrapState, graph: TrapGraph, circuit: Circuit, gate_id: int
) -> str | None:
    gate = circuit.gate_by_id.get(gate_id)
    if gate is None:
        return f"unknown gate {gate_id}"
    if not circuit.in_first_layer(gate_id):
        return f"gate {gate_id} is not in the first layer"
    positions = state.qubit_positions
    for qubit in gate.qubits:
        if qubit not in positions:
            return f"qubit {qubit} is not placed"
    vertex = positions[gate.qubits[0]].vertex
    if any(positions[q].vertex != vertex for q in gate.qubits):
        return f"qubits of gate {gate_id} sit in different vertices"
    if not graph.allows(vertex, "gate"):
        return f"vertex {vertex} does not allow gate execution"
    if len(state.chain_at(vertex)) != len(gate.qubits):
        return f"vertex {vertex} holds qubits besides those of gate {gate_id}"
    return None


def violation(
    state: TrapState, graph: TrapGraph, circuit: Circuit, op: ShuttleOp
) -> str | None:
    """The violated condition for op in this state, or None when legal."""
    if isinstance(op, Translate):
        return _translate_violation(state, graph, op.src, op.dst)
    if isinstance(op, Separate):
        return _separate_violation(state, graph, op.at)
    if isinstance(op, Merge):
        return _merge_violation(state, graph, op.at)
    if isinstance(op, Swap):
        return _swap_violation(state, graph, op.at)
    if isinstance(op, ExecuteGate):
        return _execute_violation(state, graph, circuit, op.gate)
    raise TypeError(f"not an operation: {op!r}")


def apply(state: TrapState, graph: TrapGraph, circuit: Circuit, op: ShuttleOp) -> TrapState:
    """The state after op; raises IllegalOperationError naming the failed condition.

    A shuttling op steps through kernel.transition, and an Execute Gate of the
    first layer is legal when kernel.ready_gates lists it; executing returns
    the state unchanged. violation() only words a rejection.
    """
    if isinstance(op, ExecuteGate):
        gate = circuit.gate_by_id.get(op.gate)
        if gate is not None and circuit.in_first_layer(op.gate) and kernel.ready_gates(
            graph.encoded, state.chains, (gate,)
        ):
            return state
    else:
        after = kernel.transition(graph.encoded, state.chains, state.locks, encode_op(op))
        if after is not None:
            return TrapState(*after)
    raise rejection(state, graph, circuit, op)


def rejection(
    state: TrapState, graph: TrapGraph, circuit: Circuit, op: ShuttleOp
) -> IllegalOperationError:
    """The error for an op that is illegal in this state, naming the failed condition."""
    return IllegalOperationError(f"{format_op(op)}: {violation(state, graph, circuit, op)}")


def shuttle_ops(state: TrapState, graph: TrapGraph) -> list[ShuttleOp]:
    """Every legal shuttling op, in the order kernel.successors gives them.

    Translates sorted by (src, dst), then Separate, Merge, and Swap by vertex.
    """
    successors = kernel.successors(graph.encoded, state.chains, state.locks)
    return [decode_op(code) for code, _, _ in successors]


def allowed_ops(state: TrapState, graph: TrapGraph, circuit: Circuit) -> list[ShuttleOp]:
    """Every legal operation, in canonical order.

    `shuttle_ops`, then the Execute Gates kernel.ready_gates allows, by gate number.
    """
    ready = kernel.ready_gates(graph.encoded, state.chains, circuit.first_layer)
    return shuttle_ops(state, graph) + [ExecuteGate(g) for g in ready]


def encode_op(op: ShuttleOp) -> tuple[int, int, int]:
    """The kernel op code (kind, a, b) of an operation; the inverse of `decode_op`.

    Ids are not checked here: kernel.transition bounds-checks every vertex.
    """
    if isinstance(op, Translate):
        return (kernel.TRANSLATE, op.src, op.dst)
    if isinstance(op, ExecuteGate):
        return (kernel.EXECUTE, op.gate, -1)
    if isinstance(op, (Separate, Merge, Swap)):
        return (_OP_TYPES.index(type(op)), op.at, -1)
    raise TypeError(f"not an operation: {op!r}")


def decode_op(code: tuple[int, int, int]) -> ShuttleOp:
    """The operation a kernel op code (kind, a, b) stands for; the inverse of `encode_op`."""
    kind, a, b = code
    if not 0 <= kind < len(_OP_TYPES):
        raise ValueError(f"unknown kernel op code {kind}")
    return Translate(a, b) if kind == kernel.TRANSLATE else _OP_TYPES[kind](a)


def format_op(op: ShuttleOp) -> str:
    if isinstance(op, Translate):
        return f"Translate {op.src} -> {op.dst}"
    if isinstance(op, Separate):
        return f"Separate {op.at}"
    if isinstance(op, Merge):
        return f"Merge {op.at}"
    if isinstance(op, Swap):
        return f"Swap {op.at}"
    if isinstance(op, ExecuteGate):
        return f"Execute Gate {op.gate}"
    raise TypeError(f"not an operation: {op!r}")


_OP_PATTERNS: tuple[tuple[re.Pattern, type], ...] = (
    (re.compile(r"^Translate (\d+) -> (\d+)$"), Translate),
    (re.compile(r"^Separate (\d+)$"), Separate),
    (re.compile(r"^Merge (\d+)$"), Merge),
    (re.compile(r"^Swap (\d+)$"), Swap),
    (re.compile(r"^Execute Gate (\d+)$"), ExecuteGate),
)


def parse_op(line: str) -> ShuttleOp:
    """Parse one canonical op line; raises ValueError on any deviation."""
    for pattern, op_type in _OP_PATTERNS:
        match = pattern.match(line)
        if match:
            return op_type(*(int(g) for g in match.groups()))
    raise ValueError(f"not an operation line: {line!r}")
