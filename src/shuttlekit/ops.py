"""The five schedule operations: legality checks, effects, enumeration, text.

Apply functions are pure: they check the operation's precondition against
the given state and return a new state, raising IllegalOperationError with
the violated condition otherwise. Executing a gate leaves the chain state
untouched; callers advance the circuit separately. The enumeration of legal
ops comes from the kernel; violation() states the same rules for one op
with a reason, and tests hold the two equal.
"""

from __future__ import annotations

import math
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


def _translate_violation(state: TrapState, graph: TrapGraph, src: int, dst: int) -> str | None:
    if src not in graph.vertices or dst not in graph.vertices:
        return f"no vertex pair ({src}, {dst})"
    if tuple(sorted((src, dst))) not in graph.edges:
        return f"vertices {src} and {dst} are not adjacent"
    if not state.occupied(src):
        return f"vertex {src} is empty"
    if state.occupied(dst):
        return f"vertex {dst} is occupied"
    if graph.is_junction(dst) and state.junction_locks.get(dst) == src:
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
    """New state after op; raises IllegalOperationError naming the failed condition."""
    reason = violation(state, graph, circuit, op)
    if reason is not None:
        raise IllegalOperationError(f"{format_op(op)}: {reason}")
    chains = dict(state.chains)
    locks = state.junction_locks
    if isinstance(op, Translate):
        chains[op.dst] = chains.pop(op.src)
        if graph.is_junction(op.src):
            locks = dict(locks)
            locks[op.src] = op.dst
    elif isinstance(op, Separate):
        left, right = graph.lateral_pair(op.at)
        chain = chains.pop(op.at)
        head = math.ceil(len(chain) / 2)
        chains[left] = chain[:head]
        chains[right] = chain[head:]
    elif isinstance(op, Merge):
        left, right = graph.lateral_pair(op.at)
        chains[op.at] = chains.pop(left) + chains.pop(right)
    elif isinstance(op, Swap):
        chains[op.at] = chains[op.at][::-1]
    # ExecuteGate leaves chains and locks untouched.
    return TrapState(chains, locks)


def allowed_ops(state: TrapState, graph: TrapGraph, circuit: Circuit) -> list[ShuttleOp]:
    """Every legal operation, in canonical order, as the kernel enumerates them.

    kernel.successors gives the shuttling ops: Translates sorted by
    (src, dst), then Separate, Merge, and Swap by vertex. kernel.ready_gates
    gives the executable first-layer gates, as Execute Gate by gate number.
    """
    trap = graph.encoded
    chains, locks = kernel.encode_state(state, trap[0])
    out = [decode_op(code) for code, _, _ in kernel.successors(trap, chains, locks)]
    gates = kernel.encode_gates(circuit.first_layer)
    out.extend(ExecuteGate(g) for g in kernel.ready_gates(trap, chains, gates))
    return out


def decode_op(code: tuple[int, int, int]) -> ShuttleOp:
    """The operation a kernel op code (kind, a, b) stands for."""
    kind, a, b = code
    if kind == kernel.TRANSLATE:
        return Translate(a, b)
    if kind == kernel.SEPARATE:
        return Separate(a)
    if kind == kernel.MERGE:
        return Merge(a)
    if kind == kernel.SWAP:
        return Swap(a)
    if kind == kernel.EXECUTE:
        return ExecuteGate(a)
    raise ValueError(f"unknown kernel op code {kind}")


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
