"""The five schedule operations: stepping, enumeration, rejection text, op text.

An op is its kernel op code, the named tuple `ShuttleOp` (kind, a, b);
each of the five op types fixes its kind, and `decode_op` types a plain
code. Every rule is the kernel's: `apply`, `allowed_ops` and `violation`
ask it and word its answer. `format_op` writes an op's line, and one
alternation regex, `_OP_LINE`, is the grammar `parse_op` reads it back by.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import kernel
from .circuit import Circuit
from .errors import IllegalOperationError
from .state import TrapState
from .trap import TrapGraph


class ShuttleOp(NamedTuple):
    """One operation as its kernel op code (kind, a, b); b is -1 for one operand."""

    kind: int
    a: int
    b: int = -1


class Translate(ShuttleOp):
    __slots__ = ()
    src, dst = ShuttleOp.a, ShuttleOp.b

    def __new__(cls, src: int, dst: int) -> Translate:
        return tuple.__new__(cls, (kernel.TRANSLATE, src, dst))


class _OneOperand(ShuttleOp):
    __slots__ = ()

    def __new__(cls, a: int) -> _OneOperand:
        return tuple.__new__(cls, (cls.KIND, a, -1))


class Separate(_OneOperand):
    __slots__ = ()
    KIND = kernel.SEPARATE


class Merge(_OneOperand):
    __slots__ = ()
    KIND = kernel.MERGE


class Swap(_OneOperand):
    __slots__ = ()
    KIND = kernel.SWAP


class ExecuteGate(_OneOperand):
    __slots__ = ()
    KIND = kernel.EXECUTE


_OP_TYPES: tuple[type, ...] = (Translate, Separate, Merge, Swap, ExecuteGate)


def violation(
    state: TrapState, graph: TrapGraph, circuit: Circuit, op: ShuttleOp
) -> str | None:
    """The first rule op breaks in this state, or None when it is legal.

    An Execute Gate must name a gate of the circuit's first layer. Past
    that, the kernel words the rule as a template, kernel.illegal for a
    shuttling op and kernel.unready for a gate, and this fills in its numbers.
    """
    kind, a, b = op
    trap, chains = graph.encoded, state.chains
    qubits, pair = (), None
    if kind == kernel.EXECUTE:
        if circuit.in_first_layer(a):
            qubits = circuit.gates[a - 1].qubits
            template = kernel.unready(trap, chains, qubits)
        elif 0 < a <= len(circuit.gates):
            template = "gate {a} is not in the first layer"
        else:
            template = "unknown gate {a}"
    else:
        template = kernel.illegal(trap, chains, state.locks, op)
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
    if op.kind == kernel.EXECUTE:
        if (
            circuit.in_first_layer(op.a)
            and kernel.unready(graph.encoded, state.chains, circuit.gates[op.a - 1].qubits) is None
        ):
            return state
    else:
        after = kernel.transition(graph.encoded, state.chains, state.locks, op)
        if after is not None:
            return TrapState(*after)
    raise IllegalOperationError(f"{format_op(op)}: {violation(state, graph, circuit, op)}")


def allowed_ops(state: TrapState, graph: TrapGraph, circuit: Circuit) -> list[ShuttleOp]:
    """Every legal operation: kernel.successors's shuttling ops, then ready Execute Gates."""
    trap = graph.encoded
    codes = kernel.successors(trap, state.chains, state.locks)
    ready = kernel.ready_gates(trap, state.chains, circuit.first_layer)
    return [decode_op(code) for code in codes] + [ExecuteGate(g) for g in ready]


def decode_op(code: tuple[int, int, int]) -> ShuttleOp:
    """The typed op equal to a plain kernel op code (kind, a, b); ids are not checked."""
    kind, a, b = code
    if not 0 <= kind < len(_OP_TYPES):
        raise ValueError(f"unknown kernel op code {kind}")
    return Translate(a, b) if kind == kernel.TRANSLATE else _OP_TYPES[kind](a)


def format_op(op: ShuttleOp | tuple[int, int, int]) -> str:
    kind, a, b = op
    if kind == kernel.TRANSLATE:
        return f"Translate {a} -> {b}"
    if kind == kernel.SEPARATE:
        return f"Separate {a}"
    if kind == kernel.MERGE:
        return f"Merge {a}"
    if kind == kernel.SWAP:
        return f"Swap {a}"
    if kind == kernel.EXECUTE:
        return f"Execute Gate {a}"
    raise ValueError(f"unknown kernel op code {kind}")


# The op-line grammar: a Translate, or a one-operand op's name and its operand.
_OP_LINE = re.compile(r"Translate ([0-9]+) -> ([0-9]+)|(Separate|Merge|Swap|Execute Gate) ([0-9]+)")
_BY_NAME = {"Separate": Separate, "Merge": Merge, "Swap": Swap, "Execute Gate": ExecuteGate}


def parse_op(line: str) -> ShuttleOp:
    """Parse one canonical op line, ASCII digits only; raises ValueError on any deviation."""
    match = _OP_LINE.fullmatch(line)
    if match is None:
        raise ValueError(f"not an operation line: {line!r}")
    src, dst, name, operand = match.groups()
    return Translate(int(src), int(dst)) if name is None else _BY_NAME[name](int(operand))
