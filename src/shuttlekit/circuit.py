"""Quantum circuits as numbered gate lists with pending-layer queries.

Gate functionality is irrelevant for shuttling, so a circuit reduces to
which qubits each gate touches and the per-qubit order implied by the text:
gates sharing a qubit execute in ascending number, independent gates in any
order. Circuits are immutable; executing a gate yields a new circuit.

Progress is a frontier: one cursor per qubit into that qubit's gate order
(`_Frontier`), built on the first frontier query and shared by every
circuit `mark_executed` derives, so executing a gate costs O(operands) and
the first layer is read off the cursors in O(qubits). Construction
validates the gate list once and holds gate ids to positions 1..G.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import CircuitError, OrderViolationError

QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]+)\s*\]$")
_GATE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(\(([^)]*)\))?\s*(.*)$")
_OPERAND_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]+)\s*\]$")

_IGNORED_STATEMENTS = ("OPENQASM", "include", "creg", "barrier", "measure")

# The largest register a circuit may declare: per-qubit tables are allocated
# up front, so a size read from a file is bounded first. The paper uses 16.
MAX_QUBITS = 4096


@dataclass(frozen=True)
class Gate:
    """One gate: 1-based number, operand qubits in textual order, name."""

    id: int
    qubits: tuple[int, ...]
    name: str = "g"


class _Frontier:
    """Per-qubit gate order of one gate list, by gate position (id - 1).

    order[q] holds the positions of the gates on qubit q, ascending;
    places[i] pairs each operand q of the gate at position i with that
    gate's index in order[q]. A gate is executed exactly when every
    operand's cursor has passed it, and it is in the first layer when every
    operand's cursor points at it.
    """

    __slots__ = ("order", "places")

    def __init__(self, qubit_count: int, gates: tuple[Gate, ...]) -> None:
        order: list[list[int]] = [[] for _ in range(qubit_count)]
        places = []
        for i, gate in enumerate(gates):
            places.append(tuple((q, len(order[q])) for q in gate.qubits))
            for q in gate.qubits:
                order[q].append(i)
        self.order = tuple(tuple(positions) for positions in order)
        self.places = tuple(places)


@dataclass(frozen=True)
class Circuit:
    qubit_count: int
    gates: tuple[Gate, ...]
    executed_count: int = field(init=False, compare=False)
    _cursors: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.qubit_count > MAX_QUBITS:
            raise CircuitError(f"{self.qubit_count} qubits exceed the limit of {MAX_QUBITS}")
        for expected, gate in enumerate(self.gates, start=1):
            if gate.id != expected:
                raise CircuitError(f"gate {gate.id} out of sequence, expected {expected}")
            if not 1 <= len(gate.qubits) <= 2:
                raise CircuitError(f"gate {gate.id} has {len(gate.qubits)} operands")
            if len(set(gate.qubits)) != len(gate.qubits):
                raise CircuitError(f"gate {gate.id} repeats an operand")
            for q in gate.qubits:
                if not 0 <= q < self.qubit_count:
                    raise CircuitError(f"gate {gate.id} touches unknown qubit {q}")
        object.__setattr__(self, "executed_count", 0)
        object.__setattr__(self, "_cursors", (0,) * self.qubit_count)

    @cached_property
    def _frontier(self) -> _Frontier:
        return _Frontier(self.qubit_count, self.gates)

    @cached_property
    def executed(self) -> frozenset[int]:
        order = self._frontier.order
        return frozenset(
            i + 1 for q, cursor in enumerate(self._cursors) for i in order[q][:cursor]
        )

    def in_first_layer(self, gate_id: int) -> bool:
        """Whether gate_id is pending with no pending predecessor; O(operands).

        The one place an id from outside is bounded: an id outside 1..G is
        in no layer, so a caller reads `gates[gate_id - 1]` once this is True.
        """
        if not 0 < gate_id <= len(self.gates):
            return False
        cursors = self._cursors
        for q, index in self._frontier.places[gate_id - 1]:
            if cursors[q] != index:
                return False
        return True

    @cached_property
    def first_layer(self) -> tuple[Gate, ...]:
        """Pending gates with no pending predecessor on any operand.

        Such a gate heads the pending list of every operand, and is taken
        from its first operand's.
        """
        frontier = self._frontier
        places = frontier.places
        cursors = self._cursors
        ready = []
        for q, positions in enumerate(frontier.order):
            cursor = cursors[q]
            if cursor == len(positions):
                continue
            i = positions[cursor]
            operands = places[i]
            if operands[0][0] != q:
                continue
            for p, index in operands:
                if cursors[p] != index:
                    break
            else:
                ready.append(i)
        ready.sort()
        return tuple(map(self.gates.__getitem__, ready))

    @cached_property
    def next_executable(self) -> tuple[Gate, ...]:
        """Deeper gates that enter the first layer once a single gate resolves.

        Executing first-layer gate g advances the cursor of each operand of
        g by one. The gate after g on such an operand is promoted when every
        operand p of it then has its cursor at that gate's index in order[p].
        """
        frontier = self._frontier
        order, places, cursors = frontier.order, frontier.places, self._cursors
        promoted = set()
        for gate in self.first_layer:
            qubits = gate.qubits
            for q in qubits:
                positions, after = order[q], cursors[q] + 1
                if after < len(positions):
                    i = positions[after]
                    for p, index in places[i]:
                        if index != cursors[p] + (p in qubits):
                            break
                    else:
                        promoted.add(i)
        return tuple(map(self.gates.__getitem__, sorted(promoted)))

    @property
    def is_complete(self) -> bool:
        return self.executed_count == len(self.gates)

    def mark_executed(self, gate_id: int) -> Circuit:
        """New circuit with gate_id executed; rejects out-of-order execution.

        The successor shares this circuit's gate list and frontier, so it
        skips the construction check.
        """
        frontier = self._frontier
        if not self.in_first_layer(gate_id):
            if not 0 < gate_id <= len(self.gates):
                raise CircuitError(f"unknown gate {gate_id}")
            first_qubit, first_index = frontier.places[gate_id - 1][0]
            if self._cursors[first_qubit] > first_index:
                raise OrderViolationError(f"gate {gate_id} already executed")
            raise OrderViolationError(
                f"gate {gate_id} has pending predecessors and cannot execute"
            )
        cursors = list(self._cursors)
        for q, _ in frontier.places[gate_id - 1]:
            cursors[q] += 1
        successor = object.__new__(Circuit)
        successor.__dict__.update(
            qubit_count=self.qubit_count,
            gates=self.gates,
            executed_count=self.executed_count + 1,
            _cursors=tuple(cursors),
            _frontier=frontier,
        )
        return successor


def _statements(text: str):
    """Yield (line_number, statement) pairs, comments stripped."""
    buffer = ""
    start_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0]
        if not buffer.strip():
            start_line = lineno
        buffer += line
        while ";" in buffer:
            statement, buffer = buffer.split(";", 1)
            if statement.strip():
                yield start_line, statement.strip()
            start_line = lineno
        buffer += " "
    if buffer.strip():
        raise CircuitError(f"line {start_line}: unterminated statement {buffer.strip()!r}")


def _integer(digits: str, lineno: int) -> int:
    """A register size or qubit index; one past the interpreter's digit limit is a CircuitError."""
    try:
        return int(digits)
    except ValueError:
        raise CircuitError(f"line {lineno}: integer of {len(digits)} digits is too long") from None


def parse_circuit(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset: one qreg, 1-/2-qubit gates.

    measure, barrier, and creg statements are skipped; gate names are kept.
    Gates are numbered 1..G in textual order.
    """
    register: tuple[str, int] | None = None
    gates: list[Gate] = []
    for lineno, statement in _statements(text):
        head = statement.split(None, 1)[0]
        if head in _IGNORED_STATEMENTS:
            continue
        if head == "qreg":
            match = _QREG_RE.match(statement)
            if not match:
                raise CircuitError(f"line {lineno}: malformed qreg {statement!r}")
            if register is not None:
                raise CircuitError(f"line {lineno}: only one qreg is supported")
            register = (match.group(1), _integer(match.group(2), lineno))
            continue
        match = _GATE_RE.match(statement)
        if not match:
            raise CircuitError(f"line {lineno}: unrecognized statement {statement!r}")
        name, _, _, operand_text = match.groups()
        if register is None:
            raise CircuitError(f"line {lineno}: gate before qreg declaration")
        operands = []
        for chunk in operand_text.split(","):
            chunk = chunk.strip()
            operand = _OPERAND_RE.match(chunk)
            if not operand:
                raise CircuitError(f"line {lineno}: malformed operand {chunk!r}")
            reg_name, index = operand.group(1), _integer(operand.group(2), lineno)
            if reg_name != register[0]:
                raise CircuitError(f"line {lineno}: unknown register {reg_name!r}")
            if index >= register[1]:
                raise CircuitError(
                    f"line {lineno}: qubit {index} outside register of size {register[1]}"
                )
            operands.append(index)
        if not 1 <= len(operands) <= 2:
            raise CircuitError(
                f"line {lineno}: gate {name!r} has {len(operands)} operands, only 1 or 2 supported"
            )
        if len(set(operands)) != len(operands):
            raise CircuitError(f"line {lineno}: gate {name!r} repeats an operand")
        gates.append(Gate(len(gates) + 1, tuple(operands), name))
    if register is None:
        raise CircuitError("no qreg declaration found")
    return Circuit(register[1], tuple(gates))


def serialize_circuit(circuit: Circuit) -> str:
    """Emit the circuit back as OpenQASM text (gate names preserved)."""
    lines = [QASM_HEADER + f"qreg q[{circuit.qubit_count}];"]
    for gate in circuit.gates:
        operands = ",".join(f"q[{q}]" for q in gate.qubits)
        lines.append(f"{gate.name} {operands};")
    return "\n".join(lines) + "\n"
