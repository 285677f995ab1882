"""Trap state values, qubit position lines, and the initial placement heuristic."""

import random

import pytest

from shuttlekit import trap
from shuttlekit.baseline import random_circuit
from shuttlekit.circuit import Circuit, Gate
from shuttlekit.errors import PlacementError
from shuttlekit.state import TrapState, initial_placement, position_lines
from test_ops import successor_states

LINEAR4 = trap.build_linear(4)  # vertices 0..8
BRANCHED = trap.build_branched(1, 1, 1)  # junction 1


def test_state_rejects_empty_chain():
    with pytest.raises(ValueError):
        TrapState.from_dicts(LINEAR4, {3: ()})


def test_state_rejects_duplicate_qubit():
    with pytest.raises(ValueError):
        TrapState.from_dicts(LINEAR4, {0: (1,), 2: (1,)})


def test_chain_lookup_and_occupancy():
    state = TrapState.from_dicts(LINEAR4, {4: (0, 2)})
    assert state.chains[4] == (0, 2)
    assert state.chains[5] == ()
    assert {q for chain in state.chains for q in chain} == {0, 2}


def test_position_lines_read_the_chain_index():
    """A qubit's position is its index in its vertex's chain; an absent qubit has no line."""
    state = TrapState.from_dicts(LINEAR4, {1: (0, 1), 7: (3,)})
    assert position_lines(state) == ["qubit 0 at [1, 0]", "qubit 1 at [1, 1]", "qubit 3 at [7, 0]"]


def test_state_equality_distinguishes_lock_history():
    a = TrapState.from_dicts(BRANCHED, {2: (0,)}, {1: 0})
    b = TrapState.from_dicts(BRANCHED, {2: (0,)}, {1: 2})
    c = TrapState.from_dicts(BRANCHED, {2: (0,)}, {1: 0})
    assert a != b
    assert a == c


def test_position_lines_format():
    state = TrapState.from_dicts(LINEAR4, {1: (1, 0), 5: (2,)})
    assert position_lines(state) == [
        "qubit 0 at [1, 1]",
        "qubit 1 at [1, 0]",
        "qubit 2 at [5, 0]",
    ]


FAMILIES = [
    (trap.build_linear(1), 3),
    (trap.build_linear(4), 6),
    (trap.build_branched(3, 2, 2), 5),
    (trap.build_eval_layout("ring", 5), 5),
    (trap.build_eval_layout("multi_linear", 6), 6),
    (trap.build_eval_layout("four_way", 6), 6),
]


@pytest.mark.parametrize(
    "graph,qubits", FAMILIES, ids=["linear1", "linear4", "branched", "ring", "multi_linear", "four_way"]
)
def test_position_lines_equal_the_qubit_positions_text(graph, qubits):
    """The lines equal a per-qubit search of the chains on seeded random walks."""

    def from_positions(state):
        held = sorted(q for chain in state.chains for q in chain)
        spots = [next((v, c.index(q)) for v, c in enumerate(state.chains) if q in c) for q in held]
        return [f"qubit {q} at [{v}, {p}]" for q, (v, p) in zip(held, spots)]

    states = [TrapState.from_dicts(graph, {})]
    for seed in range(3):
        rng = random.Random(seed)
        state = initial_placement(random_circuit(qubits, 4, seed), graph)
        for _ in range(40):
            states.append(state)
            successors = successor_states(graph.encoded, state.chains, state.locks)
            if not successors:
                break
            state = TrapState(*rng.choice(successors)[1:])
    assert position_lines(states[0]) == []
    for state in states:
        assert position_lines(state) == from_positions(state)


# -- initial placement ------------------------------------------------------


def test_two_qubit_circuit_starts_in_gate_segment():
    circuit = Circuit(2, (Gate(1, (0, 1)),))
    graph = trap.build_linear(1)
    placement = initial_placement(circuit, graph)
    assert placement == TrapState.from_dicts(graph, {1: (0, 1)})
    assert set(placement.locks) == {-1}


def test_single_qubit_starts_in_gate_segment():
    circuit = Circuit(1, (Gate(1, (0,)),))
    graph = trap.build_linear(1)
    placement = initial_placement(circuit, graph)
    assert placement == TrapState.from_dicts(graph, {1: (0,)})


def test_first_two_qubit_gate_operands_take_the_gate_segment():
    # First gate is on (q2, q3); the heuristic seeds them in operand order
    # and pairs the leftover gate-2 partners in the nearest storage. Frozen.
    circuit = Circuit(4, (Gate(1, (2, 3)), Gate(2, (0, 1)), Gate(3, (1, 2))))
    placement = initial_placement(circuit, LINEAR4)
    assert placement == TrapState.from_dicts(LINEAR4, {3: (0, 1), 4: (2, 3)})


def test_placement_is_deterministic():
    circuit = Circuit(5, (Gate(1, (4, 0)), Gate(2, (1, 3)), Gate(3, (2, 4))))
    graph = trap.build_branched(5, 2, 3)
    first = initial_placement(circuit, graph)
    second = initial_placement(circuit, graph)
    assert first == second
    assert not any(graph.is_junction(v) for v, chain in enumerate(first.chains) if chain)


def test_placement_spreads_over_storage_by_distance():
    circuit = Circuit(6, tuple(Gate(i + 1, (i % 6,)) for i in range(6)))
    graph = trap.build_linear(6)
    placement = initial_placement(circuit, graph)
    assert sorted(q for chain in placement.chains for q in chain) == list(range(6))
    for vertex, chain in enumerate(placement.chains):
        if not chain:
            continue
        assert len(chain) <= graph.capacity
        assert not graph.is_junction(vertex)


def test_placement_overflow_is_an_error():
    # linear(1) holds at most 3 segments x capacity 2 = 6 qubits, junctions
    # aside; 7 qubits cannot fit.
    gates = tuple(Gate(i + 1, (i,)) for i in range(7))
    with pytest.raises(PlacementError):
        initial_placement(Circuit(7, gates), trap.build_linear(1))
