"""Schedules: placement plus op list, validated by replay.

A schedule is complete when replay executes every gate, ends with no
occupied junction, and contains no shuttling after the final gate. There
is one replay loop, `replay`, which applies `step` op by op and returns the
validation report, the per-gate slices, the optimizer's kept ops and the
circuit reached. It is the only code that steps ops. `validate` replays
on every call and reads the report. `Schedule.slices` reads the slices of
the one replay the schedule holds: the first `validate`'s, or one run on
first use (a compiled schedule's is the replay that validates it), so a
parsed schedule is replayed once for its validation and its slices.
`optimize` reads the kept ops of its own pass, and the generation
driver the report, kept ops and circuit of each slice it accepts, so a
generated schedule is complete only if `validate` accepts it. The
optimizer deletes adjacent op pairs that provably return to the state they
started from, junction locks included, so removal can never invalidate a
later op or change the final state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import ops as op_mod
from .circuit import Circuit
from .errors import (
    IllegalOperationError,
    ScheduleError,
    ScheduleValidationError,
)
from .ops import ExecuteGate, ShuttleOp
from .state import TrapState
from .trap import TrapGraph


@dataclass(frozen=True)
class Schedule:
    graph: TrapGraph
    circuit: Circuit
    placement: TrapState
    ops: tuple[ShuttleOp, ...]

    @cached_property
    def _replayed(self) -> tuple[ValidationReport, tuple[EntrySlice, ...]]:
        """The report and slices of the schedule's one replay, held from its first run."""
        report, slices, *_ = replay(self.graph, self.placement, self.circuit, self.ops)
        return report, tuple(slices)

    @property
    def slices(self) -> tuple[EntrySlice, ...]:
        """The per-gate slices of the schedule's one replay (see `decompose`)."""
        report, slices = self._replayed
        if not report.ok:
            raise ScheduleValidationError(report)
        return slices


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failure_index: int | None
    reason: str | None
    gates_executed: int
    final_state: TrapState | None


@dataclass(frozen=True)
class EntrySlice:
    """Ops up to and including one gate execution, with the states they pass through.

    `state` and `circuit` are where the slice starts, and `states[i]` is the
    state that shuttling op `ops[i]` leads to, one per op before the final
    Execute Gate, as replay stepped them.
    """

    state: TrapState
    circuit: Circuit
    ops: tuple[ShuttleOp, ...]
    states: tuple[TrapState, ...]

    @property
    def gate(self) -> int:
        last = self.ops[-1]
        assert isinstance(last, ExecuteGate)
        return last.gate


def step(
    graph: TrapGraph, state: TrapState, circuit: Circuit, op: ShuttleOp
) -> tuple[TrapState, Circuit]:
    """Apply one op to the (state, circuit) pair."""
    state = op_mod.apply(state, graph, circuit, op)
    if isinstance(op, ExecuteGate):
        circuit = circuit.mark_executed(op.gate)
    return state, circuit


def replay(
    graph: TrapGraph,
    state: TrapState,
    circuit: Circuit,
    ops: list[ShuttleOp] | tuple[ShuttleOp, ...],
) -> tuple[ValidationReport, list[EntrySlice], list[ShuttleOp], Circuit]:
    """Step the ops once from (state, circuit): report, slices, kept ops, circuit reached.

    An illegal op stops the replay with `failure_index` set and
    `final_state=None`. Otherwise the report checks the end conditions:
    every gate executed, no op after the final gate, no chain on a junction.
    The slices are cut at each Execute Gate from the ops as given, and each
    records the state every one of its shuttling ops led to.

    The kept ops are the optimizer's. A stack holds each kept op with the
    state it starts from; an incoming shuttling op cancels the top when the
    pair returns to the top op's start state, junction locks included.
    Every shuttling op changes the state and only its inverse undoes it, so
    such a pair is a back-and-forth Translate, Merge;Separate either way
    round, or a double Swap. A cancelled pair is a state identity, so the
    kept ops replay to the same states, final state and executed gates, and
    no kept adjacent pair is redundant. Ops are never reordered and Execute
    Gate lines survive. No cancellation crosses an Execute Gate, which keeps
    the state every shuttling op changes: the kept ops are each slice's own.
    """
    slices: list[EntrySlice] = []
    kept: list[tuple[ShuttleOp, TrapState]] = []
    slice_state, slice_circuit, states = state, circuit, []
    start = 0
    for index, op in enumerate(ops):
        try:
            after, circuit = step(graph, state, circuit, op)
        except IllegalOperationError as exc:
            report = ValidationReport(False, index, str(exc), len(slices), None)
            return report, slices, [op for op, _ in kept], circuit
        if isinstance(op, ExecuteGate):
            piece = EntrySlice(slice_state, slice_circuit, tuple(ops[start : index + 1]), tuple(states))
            slices.append(piece)
            slice_state, slice_circuit, states, start = after, circuit, [], index + 1
            kept.append((op, state))
        else:
            states.append(after)
            if kept and after == kept[-1][1]:
                kept.pop()
            else:
                kept.append((op, state))
        state = after
    executed = len(slices)
    failure_index = reason = None
    if not circuit.is_complete:
        reason = f"unexecuted gates remain ({executed} of {len(circuit.gates)})"
    elif start != len(ops):
        failure_index, reason = start, "trailing operations after the final gate"
    else:
        for vertex, chain in enumerate(state.chains):
            if chain and graph.is_junction(vertex):
                reason = f"junction {vertex} occupied at the end"
                break
    report = ValidationReport(reason is None, failure_index, reason, executed, state)
    return report, slices, [op for op, _ in kept], circuit


def validate(schedule: Schedule) -> ValidationReport:
    """Replay the schedule and report the first violated condition, if any.

    Every call replays. The schedule keeps this replay for `Schedule.slices`
    when it holds none yet, so the slices `decompose` reads after
    `parse_schedule` are those of the replay that validated the file.
    """
    report, slices, *_ = replay(schedule.graph, schedule.placement, schedule.circuit, schedule.ops)
    schedule.__dict__.setdefault("_replayed", (report, tuple(slices)))
    return report


def decompose(schedule: Schedule) -> list[EntrySlice]:
    """A fresh list of `schedule.slices`; concatenating the slices restores the schedule.

    An invalid schedule raises ScheduleValidationError carrying the report
    `validate` returns, on every call: only a valid schedule keeps slices.
    """
    return list(schedule.slices)


def optimize(
    ops: list[ShuttleOp] | tuple[ShuttleOp, ...],
    graph: TrapGraph,
    circuit: Circuit,
    state: TrapState,
) -> list[ShuttleOp]:
    """Remove redundant adjacent pairs until none remain (the kept ops of `replay`).

    The ops must replay legally from (state, circuit); an illegal op raises
    IllegalOperationError. They need not complete the circuit.
    """
    report, _, kept, _ = replay(graph, state, circuit, ops)
    if report.final_state is None:
        raise IllegalOperationError(report.reason)
    return kept


def serialize_schedule(schedule: Schedule, trap_path: str, circuit_path: str) -> str:
    """Schedule file text: trap/circuit references, placement, one op per line."""
    lines = [f"trap {trap_path}", f"circuit {circuit_path}"]
    chains = schedule.placement.chains
    spots = sorted((q, v, p) for v, chain in enumerate(chains) for p, q in enumerate(chain))
    lines.extend(f"placement: qubit {q} at [{v},{p}]" for q, v, p in spots)
    lines.extend(op_mod.format_op(op) for op in schedule.ops)
    return "\n".join(lines) + "\n"


def schedule_paths(text: str) -> tuple[str, str]:
    """The trap and circuit paths named in a schedule file header."""
    trap_path = circuit_path = None
    for line in text.splitlines():
        if line.startswith("trap "):
            trap_path = line[len("trap "):].strip()
        elif line.startswith("circuit "):
            circuit_path = line[len("circuit "):].strip()
        if trap_path and circuit_path:
            return trap_path, circuit_path
    raise ScheduleError("schedule file lacks trap/circuit header lines")


_PLACEMENT_PREFIX = "placement: "


def parse_schedule(
    text: str, graph: TrapGraph, circuit: Circuit, replay: bool = True
) -> Schedule:
    """Parse a schedule file against its trap and circuit.

    Validates by replay unless replay=False; an invalid schedule raises
    ScheduleValidationError carrying the report.
    """
    placement_entries: dict[int, tuple[int, int]] = {}
    parsed_ops: list[ShuttleOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("trap ", "circuit ")):
            continue
        if line.startswith(_PLACEMENT_PREFIX):
            entry = line[len(_PLACEMENT_PREFIX):]
            parts = entry.split()
            ok = (
                len(parts) == 4
                and parts[0] == "qubit"
                and parts[2] == "at"
                and parts[3].startswith("[")
                and parts[3].endswith("]")
            )
            if ok:
                vertex_s, _, pos_s = parts[3][1:-1].partition(",")
                fields = (parts[1], vertex_s, pos_s)
                ok = all(field.isascii() and field.isdigit() for field in fields)
            if ok:
                try:
                    qubit, vertex, position = map(int, fields)
                except ValueError:  # past the interpreter's digit limit
                    ok = False
            if not ok:
                raise ScheduleError(f"line {lineno}: malformed placement {entry!r}")
            if qubit in placement_entries:
                raise ScheduleError(f"line {lineno}: duplicate placement for qubit {qubit}")
            placement_entries[qubit] = (vertex, position)
            continue
        try:
            parsed_ops.append(op_mod.parse_op(line))
        except ValueError:
            raise ScheduleError(f"line {lineno}: unrecognized line {line!r}") from None

    placement = _placement_from_entries(placement_entries, graph, circuit)
    schedule = Schedule(graph, circuit, placement, tuple(parsed_ops))
    if replay:
        report = validate(schedule)
        if not report.ok:
            raise ScheduleValidationError(report)
    return schedule


def _placement_from_entries(
    entries: dict[int, tuple[int, int]], graph: TrapGraph, circuit: Circuit
) -> TrapState:
    if set(entries) != set(range(circuit.qubit_count)):
        raise ScheduleError(
            f"placement names qubits {sorted(entries)}, circuit has {circuit.qubit_count}"
        )
    by_vertex: dict[int, dict[int, int]] = {}
    for qubit, (vertex, position) in entries.items():
        if vertex not in graph.vertices:
            raise ScheduleError(f"placement references unknown vertex {vertex}")
        if graph.is_junction(vertex):
            raise ScheduleError(f"placement puts qubit {qubit} on junction {vertex}")
        by_vertex.setdefault(vertex, {})
        if position in by_vertex[vertex]:
            raise ScheduleError(f"two qubits at [{vertex},{position}]")
        by_vertex[vertex][position] = qubit
    chains: dict[int, tuple[int, ...]] = {}
    for vertex, slots in by_vertex.items():
        if sorted(slots) != list(range(len(slots))):
            raise ScheduleError(f"chain positions at vertex {vertex} are not contiguous")
        if len(slots) > graph.capacity:
            raise ScheduleError(f"chain at vertex {vertex} exceeds capacity {graph.capacity}")
        chains[vertex] = tuple(slots[p] for p in range(len(slots)))
    return TrapState.from_dicts(graph, chains)
