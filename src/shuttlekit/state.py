"""Chain state on a trap: which qubits sit where, plus junction re-entry locks."""

from __future__ import annotations

from typing import NamedTuple

from .circuit import Circuit
from .errors import PlacementError
from .trap import TrapGraph, VertexKind, bfs_distances


class TrapState(NamedTuple):
    """Chains and junction re-entry locks: the kernel's (chains, locks) pair of tuples.

    chains[v] is the qubit chain at vertex v, () when v is empty. locks[j] is
    the neighbor the last chain leaving junction j moved to, -1 when unset;
    re-entering j from that neighbor is forbidden until j is left toward
    another one. As a named tuple, a state equals and hashes as that pair.
    Operations return new states; `from_dicts` builds a checked one.
    """

    chains: tuple[tuple[int, ...], ...]
    locks: tuple[int, ...]

    @classmethod
    def from_dicts(cls, graph: TrapGraph, chains: dict, locks: dict | None = None) -> TrapState:
        """The state on `graph` with these vertex -> chain and junction -> lock maps.

        Raises ValueError for a vertex outside the trap, an empty chain or
        a qubit placed twice.
        """
        locks = locks or {}
        n = len(graph.vertices)
        for vertex in (*chains, *locks):
            if not 0 <= vertex < n:
                raise ValueError(f"vertex {vertex} is not in the trap")
            if vertex in chains and not chains[vertex]:
                raise ValueError(f"vertex {vertex} mapped to an empty chain")
        placed: set[int] = set()
        for qubit in (q for chain in chains.values() for q in chain):
            if qubit in placed:
                raise ValueError(f"qubit {qubit} appears twice")
            placed.add(qubit)
        return cls(
            tuple(tuple(chains.get(v, ())) for v in range(n)),
            tuple(locks.get(v, -1) for v in range(n)),
        )


def position_lines(state: TrapState) -> list[str]:
    """One `qubit <q> at [<v>, <p>]` line per qubit, sorted by qubit, read off `state.chains`."""
    spots = sorted((q, v, p) for v, chain in enumerate(state.chains) for p, q in enumerate(chain))
    return [f"qubit {q} at [{v}, {p}]" for q, v, p in spots]


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

    return TrapState.from_dicts(graph, chains)
