"""Chain state on a trap: which qubits sit where, plus junction re-entry locks."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .circuit import Circuit
from .errors import PlacementError
from .trap import TrapGraph, VertexKind, bfs_distances


@dataclass(frozen=True)
class QubitPos:
    vertex: int
    position: int


@dataclass(frozen=True)
class TrapState:
    """Occupied vertices mapped to ordered qubit chains.

    Treated as a value: operations return new states instead of mutating.
    Vertices never map to empty chains. junction_locks[j] records the
    neighbor the last chain leaving junction j moved to; re-entering j from
    that neighbor is forbidden until j is traversed toward another one.
    """

    chains: dict[int, tuple[int, ...]]
    junction_locks: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for vertex, chain in self.chains.items():
            if not chain:
                raise ValueError(f"vertex {vertex} mapped to an empty chain")

    def chain_at(self, vertex: int) -> tuple[int, ...]:
        return self.chains.get(vertex, ())

    def occupied(self, vertex: int) -> bool:
        return vertex in self.chains

    @cached_property
    def qubit_positions(self) -> dict[int, QubitPos]:
        positions: dict[int, QubitPos] = {}
        for vertex, chain in self.chains.items():
            for index, qubit in enumerate(chain):
                if qubit in positions:
                    raise ValueError(f"qubit {qubit} appears twice")
                positions[qubit] = QubitPos(vertex, index)
        return positions

    def position_of(self, qubit: int) -> QubitPos:
        return self.qubit_positions[qubit]

    @property
    def qubits(self) -> frozenset[int]:
        return frozenset(self.qubit_positions)


def position_lines(state: TrapState) -> list[str]:
    """One `qubit <q> at [<v>, <p>]` line per qubit, sorted by qubit."""
    lines = []
    for qubit in sorted(state.qubit_positions):
        pos = state.position_of(qubit)
        lines.append(f"qubit {qubit} at [{pos.vertex}, {pos.position}]")
    return lines


def initial_placement(circuit: Circuit, graph: TrapGraph) -> TrapState:
    """Deterministic starting state for a circuit on a trap.

    The first two-qubit gate's operands occupy the gate segment in operand
    order (circuits without two-qubit gates seed it with the first gate's
    operand). Remaining qubits, in qubit order, fill storage vertices by
    hop distance from the gate segment. When capacity is at least two, a
    qubit shares its vertex with the other operand of its own first
    two-qubit gate, if that partner is not yet placed; the partner's own
    earlier gates are not consulted. Junctions stay empty.
    """
    if not graph.gate_vertices:
        raise PlacementError("trap has no gate-eligible vertex")
    gs = graph.gate_vertices[0]

    seed: tuple[int, ...] = ()
    for gate in circuit.gates:
        if len(gate.qubits) == 2:
            seed = gate.qubits
            break
    if not seed and circuit.gates:
        seed = circuit.gates[0].qubits
    if len(seed) > graph.capacity:
        raise PlacementError(
            f"gate segment capacity {graph.capacity} cannot hold {len(seed)} seed qubits"
        )

    chains: dict[int, tuple[int, ...]] = {}
    if seed:
        chains[gs] = seed
    placed = set(seed)

    storage = [
        v for v in graph.vertex_ids
        if graph.vertices[v].kind is VertexKind.STORAGE
    ]
    distance = bfs_distances(graph, gs)
    storage.sort(key=lambda v: (distance.get(v, len(graph.vertex_ids)), v))
    slots = iter(storage)

    def partner_of(qubit: int) -> int | None:
        for gate in circuit.gates:
            if len(gate.qubits) == 2 and qubit in gate.qubits:
                other = gate.qubits[0] if gate.qubits[1] == qubit else gate.qubits[1]
                return other
        return None

    for qubit in range(circuit.qubit_count):
        if qubit in placed:
            continue
        chain = (qubit,)
        partner = partner_of(qubit)
        if partner is not None and partner not in placed and graph.capacity >= 2:
            chain = (qubit, partner)
        try:
            vertex = next(slots)
        except StopIteration:
            raise PlacementError(
                f"not enough storage vertices for {circuit.qubit_count} qubits"
            ) from None
        chains[vertex] = chain
        placed.update(chain)

    return TrapState(chains)
