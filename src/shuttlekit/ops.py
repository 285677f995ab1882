"""The five schedule operations: stepping, enumeration, rejection text, op text.

The kernel states every rule: `apply`, which schedule.replay calls for
each op, steps a shuttling op through kernel.transition, checks an
Execute Gate with kernel.unready and raises the rejection of an illegal
op, and `allowed_ops` lists the codes kernel.successors gives and the
gates kernel.ready_gates gives. violation() only checks that an Execute
Gate names a first-layer gate, and otherwise fills in the template of
the rule kernel.illegal or kernel.unready names. `encode_op` and
`decode_op` convert between ops and kernel op codes, and `format_op` is
the one op formatter: the dataset renderer formats each kernel op code
it lists as `format_op(decode_op(code))`, once per render memo.
Executing a gate leaves the chain state untouched; callers advance the
circuit separately.
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


def violation(
    state: TrapState, graph: TrapGraph, circuit: Circuit, op: ShuttleOp
) -> str | None:
    """The first rule op breaks in this state, or None when it is legal.

    An Execute Gate must name a gate of the circuit's first layer. Past
    that, the kernel words the rule as a template, kernel.illegal for a
    shuttling op and kernel.unready for a gate, and this fills in its numbers.
    """
    kind, a, b = code = encode_op(op)
    trap, chains = graph.encoded, state.chains
    qubits, pair = (), None
    if kind == kernel.EXECUTE:
        gate = circuit.gate_by_id.get(a)
        if gate is None:
            template = "unknown gate {a}"
        elif not circuit.in_first_layer(a):
            template = "gate {a} is not in the first layer"
        else:
            qubits = gate.qubits
            template = kernel.unready(trap, chains, qubits)
    else:
        template = kernel.illegal(trap, chains, state.locks, code)
        pair = graph.lateral_pair(a) if a in graph.vertices else None
    if template is None:
        return None
    vertex = None
    if qubits:
        vertex = next((v for v, chain in enumerate(chains) if qubits[0] in chain), None)
    return template.format(
        a=a,
        b=b,
        pair=pair,
        combined=sum(len(chains[side]) for side in pair or ()),
        capacity=graph.capacity,
        qubits=qubits,
        vertex=vertex,
    )


def apply(state: TrapState, graph: TrapGraph, circuit: Circuit, op: ShuttleOp) -> TrapState:
    """The state after op; raises IllegalOperationError naming the rule it breaks.

    A shuttling op steps through kernel.transition. An Execute Gate is
    legal when it names a first-layer gate that kernel.unready passes, and
    returns the state unchanged. Only a rejection calls violation(), to
    word it: the error reads "<op line>: <rule>".
    """
    if isinstance(op, ExecuteGate):
        gate = circuit.gate_by_id.get(op.gate)
        if (
            gate is not None
            and circuit.in_first_layer(op.gate)
            and kernel.unready(graph.encoded, state.chains, gate.qubits) is None
        ):
            return state
    else:
        after = kernel.transition(graph.encoded, state.chains, state.locks, encode_op(op))
        if after is not None:
            return TrapState(*after)
    raise IllegalOperationError(f"{format_op(op)}: {violation(state, graph, circuit, op)}")


def allowed_ops(state: TrapState, graph: TrapGraph, circuit: Circuit) -> list[ShuttleOp]:
    """Every legal operation, in canonical order.

    The shuttling ops kernel.successors gives: Translates by (src, dst),
    then Separate, Merge and Swap by vertex. Then the Execute Gates
    kernel.ready_gates allows, by gate number.
    """
    trap = graph.encoded
    codes = kernel.successors(trap, state.chains, state.locks)
    ready = kernel.ready_gates(trap, state.chains, circuit.first_layer)
    return [decode_op(code) for code in codes] + [ExecuteGate(g) for g in ready]


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
    (re.compile(r"Translate ([0-9]+) -> ([0-9]+)"), Translate),
    (re.compile(r"Separate ([0-9]+)"), Separate),
    (re.compile(r"Merge ([0-9]+)"), Merge),
    (re.compile(r"Swap ([0-9]+)"), Swap),
    (re.compile(r"Execute Gate ([0-9]+)"), ExecuteGate),
)


def parse_op(line: str) -> ShuttleOp:
    """Parse one canonical op line, ASCII digits only; raises ValueError on any deviation."""
    for pattern, op_type in _OP_PATTERNS:
        match = pattern.fullmatch(line)
        if match:
            return op_type(*(int(g) for g in match.groups()))
    raise ValueError(f"not an operation line: {line!r}")
