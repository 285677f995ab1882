"""Semantics of the five operations.

The kernel states each rule once: apply steps through kernel.transition,
and violation() fills in the template of the rule kernel.illegal or
kernel.unready names. Most of these tests ask both apply and violation(),
which must agree on whether an op is legal, and a pinned rejection digest
holds every reason's text. The identities at the bottom are the algebra
the optimizer relies on.
"""

import hashlib
import itertools
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from shuttlekit import baseline, kernel, ops, trap
from shuttlekit.baseline import ORACLE_MAX_VERTICES, bfs_next_gate, random_circuit
from shuttlekit.circuit import Circuit, Gate
from shuttlekit.dataset import parse_output, render_output
from shuttlekit.driver import MockCompletionClient, generate_schedule
from shuttlekit.errors import IllegalOperationError, NoRouteError
from shuttlekit.ops import (
    ExecuteGate,
    Merge,
    Separate,
    Swap,
    Translate,
    allowed_ops,
    apply,
    decode_op,
    format_op,
    parse_op,
    violation,
)
from shuttlekit.schedule import decompose
from shuttlekit.state import TrapState, initial_placement


LINEAR1 = trap.build_linear(1)  # 0 - [1] - 2
LINEAR2 = trap.build_linear(2)  # 0 - 1 - [2] - 3 - 4
BRANCHED = trap.build_branched(1, 1, 1)

TWO_QUBIT = Circuit(2, (Gate(1, (0, 1)),))
NO_GATES = Circuit(2, ())


def every_op(graph, circuit):
    """All syntactically well-formed ops on this graph/circuit."""
    out = []
    for v in graph.vertex_ids:
        for n in graph.neighbors(v):
            out.append(Translate(v, n))
    for v in graph.vertex_ids:
        out.extend([Separate(v), Merge(v), Swap(v)])
    out.extend(ExecuteGate(g.id) for g in circuit.gates)
    return out


def legal(state, graph, op, circuit=NO_GATES):
    return violation(state, graph, circuit, op) is None


# -- translate ---------------------------------------------------------------


def test_translate_moves_whole_chain_in_order():
    state = TrapState.from_dicts(LINEAR1, {1: (0, 1)})
    after = apply(state, LINEAR1, NO_GATES, Translate(1, 0))
    assert after == TrapState.from_dicts(LINEAR1, {0: (0, 1)})


def test_translate_requires_edge_source_and_empty_target():
    state = TrapState.from_dicts(LINEAR1, {0: (0,), 1: (1,)})
    assert not legal(state, LINEAR1, Translate(0, 2))  # no edge 0-2
    assert not legal(state, LINEAR1, Translate(2, 1))  # empty source
    assert not legal(state, LINEAR1, Translate(0, 1))  # occupied target
    assert legal(state, LINEAR1, Translate(1, 2))


def test_translate_respects_capacity_implicitly():
    # target must be empty outright, so capacity can never be exceeded
    state = TrapState.from_dicts(LINEAR1, {0: (0, 1), 1: (2,)})
    assert not legal(state, LINEAR1, Translate(0, 1))


def test_junction_lock_blocks_immediate_reversal():
    # walk 0 -> junction 1 -> 2, then try to re-enter the junction from 2
    state = TrapState.from_dicts(BRANCHED, {0: (0,)})
    state = apply(state, BRANCHED, NO_GATES, Translate(0, 1))
    assert state == TrapState.from_dicts(BRANCHED, {1: (0,)})  # entering sets no lock
    state = apply(state, BRANCHED, NO_GATES, Translate(1, 2))
    assert state == TrapState.from_dicts(BRANCHED, {2: (0,)}, {1: 2})
    assert not legal(state, BRANCHED, Translate(2, 1))
    msg = violation(state, BRANCHED, NO_GATES, Translate(2, 1))
    assert msg is not None and "junction" in msg


def test_junction_lock_cleared_by_exit_toward_other_neighbor():
    state = TrapState.from_dicts(BRANCHED, {0: (0,), 7: (1,)})
    for move in (Translate(0, 1), Translate(1, 2)):
        state = apply(state, BRANCHED, NO_GATES, move)
    assert not legal(state, BRANCHED, Translate(2, 1))
    # helper chain traverses the junction from stack vertex 7 out to 0
    state = apply(state, BRANCHED, NO_GATES, Translate(7, 1))
    state = apply(state, BRANCHED, NO_GATES, Translate(1, 0))
    assert state == TrapState.from_dicts(BRANCHED, {0: (1,), 2: (0,)}, {1: 0})
    assert legal(state, BRANCHED, Translate(2, 1))
    state = apply(state, BRANCHED, NO_GATES, Translate(2, 1))
    assert state.chains[1] == (0,)


def test_translate_order_preserved_exhaustively():
    # every 2-qubit arrangement on the 3-vertex path keeps chain order
    for chain in itertools.permutations((0, 1)):
        for src in (0, 1, 2):
            state = TrapState.from_dicts(LINEAR1, {src: chain})
            for dst in LINEAR1.neighbors(src):
                after = apply(state, LINEAR1, NO_GATES, Translate(src, dst))
                assert after.chains[dst] == chain


# -- separate / merge / swap ---------------------------------------------------


def test_separate_splits_first_half_left():
    state = TrapState.from_dicts(LINEAR1, {1: (0, 1)})
    after = apply(state, LINEAR1, TWO_QUBIT, Separate(1))
    assert after == TrapState.from_dicts(LINEAR1, {0: (0,), 2: (1,)})


def test_separate_odd_chain_on_wider_capacity():
    graph = trap.build_linear(1, capacity=3)
    state = TrapState.from_dicts(graph, {1: (2, 0, 1)})
    after = apply(state, graph, NO_GATES, Separate(1))
    assert after == TrapState.from_dicts(graph, {0: (2, 0), 2: (1,)})


def test_separate_requires_two_qubits_and_empty_laterals():
    assert not legal(TrapState.from_dicts(LINEAR1, {1: (0,)}), LINEAR1, Separate(1))
    assert not legal(TrapState.from_dicts(LINEAR1, {1: (0, 1), 0: (2,)}), LINEAR1, Separate(1))
    # not eligible
    assert not legal(TrapState.from_dicts(LINEAR1, {0: (0, 1)}), LINEAR1, Separate(0))
    assert legal(TrapState.from_dicts(LINEAR1, {1: (0, 1)}), LINEAR1, Separate(1))


def test_merge_concatenates_left_then_right():
    state = TrapState.from_dicts(LINEAR1, {0: (0,), 2: (1,)})
    after = apply(state, LINEAR1, TWO_QUBIT, Merge(1))
    assert after == TrapState.from_dicts(LINEAR1, {1: (0, 1)})


def test_merge_requires_room_and_both_sides():
    graph = trap.build_linear(1, capacity=3)
    # 2 + 2 > 3
    state = TrapState.from_dicts(graph, {0: (0, 1), 2: (2, 3)})
    assert not legal(state, graph, Merge(1))
    state = TrapState.from_dicts(graph, {0: (0, 1), 2: (2,)})
    assert legal(state, graph, Merge(1))
    # single side is a plain translate, not a merge
    assert not legal(TrapState.from_dicts(LINEAR1, {0: (0,)}), LINEAR1, Merge(1))
    # target must be empty
    assert not legal(TrapState.from_dicts(LINEAR1, {0: (0,), 1: (2,), 2: (1,)}), LINEAR1, Merge(1))


def test_merge_respects_default_capacity():
    state = TrapState.from_dicts(LINEAR1, {0: (0, 1), 2: (2,)})
    assert not legal(state, LINEAR1, Merge(1))


def test_swap_reverses_chain():
    state = TrapState.from_dicts(LINEAR1, {1: (0, 1)})
    after = apply(state, LINEAR1, TWO_QUBIT, Swap(1))
    assert after == TrapState.from_dicts(LINEAR1, {1: (1, 0)})
    assert after.chains[1].index(0) == 1


def test_swap_needs_two_qubits_at_eligible_vertex():
    assert not legal(TrapState.from_dicts(LINEAR1, {1: (0,)}), LINEAR1, Swap(1))
    assert not legal(TrapState.from_dicts(LINEAR1, {0: (0, 1)}), LINEAR1, Swap(0))
    assert legal(TrapState.from_dicts(LINEAR1, {1: (0, 1)}), LINEAR1, Swap(1))


def test_separate_blocked_by_junction_lateral():
    # grant separate eligibility next to a junction via a trap file
    import json

    data = json.loads(trap.serialize_trap(BRANCHED))
    # vertex 2 sits next to junction 1 on the spine
    for v in data["vertices"]:
        if v["id"] == 2:
            v["eligibility"] = ["separate", "merge", "swap"]
            v["lateral"] = [1, 3]
    graph = trap.parse_trap(json.dumps(data))
    assert not legal(TrapState.from_dicts(graph, {2: (0, 1)}), graph, Separate(2))
    assert not legal(TrapState.from_dicts(graph, {1: (0,), 3: (1,)}), graph, Merge(2))


# -- execute gate -------------------------------------------------------------


def test_execute_needs_operands_alone_in_gate_segment():
    circuit = Circuit(3, (Gate(1, (0, 1)), Gate(2, (1, 2))))
    assert legal(TrapState.from_dicts(LINEAR2, {2: (0, 1)}), LINEAR2, ExecuteGate(1), circuit)
    # stranger in the segment
    graph3 = trap.build_linear(1, capacity=3)
    assert not legal(TrapState.from_dicts(graph3, {1: (0, 1, 2)}), graph3, ExecuteGate(1), circuit)
    # operand elsewhere
    state = TrapState.from_dicts(LINEAR2, {2: (0,), 3: (1,)})
    assert not legal(state, LINEAR2, ExecuteGate(1), circuit)
    # deeper-layer gate
    assert not legal(TrapState.from_dicts(LINEAR2, {2: (1, 2)}), LINEAR2, ExecuteGate(2), circuit)


def test_execute_single_qubit_gate():
    circuit = Circuit(2, (Gate(1, (1,)), Gate(2, (0, 1))))
    state = TrapState.from_dicts(LINEAR2, {2: (1,), 0: (0,)})
    assert legal(state, LINEAR2, ExecuteGate(1), circuit)
    assert not legal(TrapState.from_dicts(LINEAR2, {2: (1, 0)}), LINEAR2, ExecuteGate(1), circuit)


def test_apply_execute_leaves_state_untouched(monkeypatch):
    """A legal Execute Gate is checked directly; violation() only words a rejection."""
    monkeypatch.setattr(ops, "violation", None)
    state = TrapState.from_dicts(LINEAR1, {1: (0, 1)})
    after = apply(state, LINEAR1, TWO_QUBIT, ExecuteGate(1))
    assert after == state


# Op lines naming vertex ids far outside any trap, as a schedule file or a
# model's output may carry them, with the reason each one is rejected for.
OUT_OF_RANGE = [
    ("Translate 99999999999999999999 -> 1", "no vertex pair (99999999999999999999, 1)"),
    ("Swap 123456789012345678901234567890", "no vertex 123456789012345678901234567890"),
    ("Merge 77777777777", "no vertex 77777777777"),
    ("Execute Gate 0", "unknown gate 0"),
    ("Execute Gate 99999999999999999999", "unknown gate 99999999999999999999"),
]


def test_apply_names_the_violated_condition():
    state = TrapState.from_dicts(LINEAR1, {1: (0,)})
    with pytest.raises(IllegalOperationError, match="Swap 1"):
        apply(state, LINEAR1, TWO_QUBIT, Swap(1))
    for line, reason in OUT_OF_RANGE:
        with pytest.raises(IllegalOperationError) as rejected:
            apply(state, LINEAR1, TWO_QUBIT, parse_op(line))
        assert str(rejected.value) == f"{line}: {reason}"


# -- enumeration ---------------------------------------------------------------


def test_allowed_ops_on_three_segment_instance():
    # both qubits of the only gate share the gate segment of a 3-vertex trap
    state = TrapState.from_dicts(LINEAR1, {1: (0, 1)})
    listed = allowed_ops(state, LINEAR1, TWO_QUBIT)
    assert listed == [
        Translate(1, 0),
        Translate(1, 2),
        Separate(1),
        Swap(1),
        ExecuteGate(1),
    ]


def test_allowed_ops_empty_cases():
    assert allowed_ops(TrapState.from_dicts(LINEAR1, {}), LINEAR1, NO_GATES) == []
    # lone qubit in a corner with its only neighbor occupied
    state = TrapState.from_dicts(LINEAR1, {0: (0,), 1: (1,)})
    moves = allowed_ops(state, LINEAR1, NO_GATES)
    assert Translate(0, 1) not in moves


def test_allowed_ops_is_sound_and_complete():
    cases = [
        (TrapState.from_dicts(LINEAR1, {1: (0, 1)}), LINEAR1, TWO_QUBIT),
        (TrapState.from_dicts(LINEAR1, {0: (0,), 2: (1,)}), LINEAR1, TWO_QUBIT),
        (
            TrapState.from_dicts(LINEAR2, {2: (1, 0), 4: (2,)}),
            LINEAR2,
            Circuit(3, (Gate(1, (0, 1)), Gate(2, (1, 2)))),
        ),
        (TrapState.from_dicts(BRANCHED, {0: (0,), 7: (1,)}, {1: 0}), BRANCHED, TWO_QUBIT),
    ]
    for state, graph, circuit in cases:
        listed = allowed_ops(state, graph, circuit)
        for op in listed:
            apply(state, graph, circuit, op)  # must not raise
        for op in every_op(graph, circuit):
            if op in listed:
                continue
            with pytest.raises(IllegalOperationError):
                apply(state, graph, circuit, op)


# -- identities ----------------------------------------------------------------


def chain_states(draw_chain):
    return st.builds(
        lambda chain: TrapState.from_dicts(LINEAR2, {2: chain}),
        draw_chain,
    )


two_chains = st.permutations(range(2)).map(tuple)


@given(chain=two_chains)
def test_swap_twice_is_identity(chain):
    state = TrapState.from_dicts(LINEAR2, {2: chain})
    once = apply(state, LINEAR2, NO_GATES, Swap(2))
    twice = apply(once, LINEAR2, NO_GATES, Swap(2))
    assert twice == state


@given(chain=two_chains)
def test_separate_then_merge_is_identity(chain):
    state = TrapState.from_dicts(LINEAR2, {2: chain})
    split = apply(state, LINEAR2, NO_GATES, Separate(2))
    joined = apply(split, LINEAR2, NO_GATES, Merge(2))
    assert joined == state


@given(
    src=st.sampled_from([0, 1, 2, 3, 4]),
    chain=st.permutations(range(3)).map(lambda p: tuple(p[:2])),
)
@settings(max_examples=60)
def test_translate_round_trip_is_identity(src, chain):
    state = TrapState.from_dicts(LINEAR2, {src: chain})
    for dst in LINEAR2.neighbors(src):
        there = apply(state, LINEAR2, NO_GATES, Translate(src, dst))
        back = apply(there, LINEAR2, NO_GATES, Translate(dst, src))
        assert back == state


# -- qubit conservation under exhaustive exploration ----------------------------


def visited_key(state):
    return state.chains, state.locks


def test_reachable_states_conserve_qubits():
    """Breadth-first soundness sweep on a small trap.

    Checks apply-iff-predicate, conservation, and capacity on everything
    reachable within four ops. The full-depth version runs in the
    acceptance suite.
    """
    circuit = Circuit(3, (Gate(1, (0, 1)), Gate(2, (1, 2))))
    graph = LINEAR2
    start = TrapState.from_dicts(LINEAR2, {2: (0, 1), 3: (2,)})
    frontier = [(start, circuit)]
    seen = {(visited_key(start), frozenset(circuit.executed))}
    for _ in range(4):
        nxt = []
        for state, circ in frontier:
            listed = allowed_ops(state, graph, circ)
            for op in every_op(graph, circ):
                reason = violation(state, graph, circ, op)
                if reason is None:
                    assert op in listed
                    after = apply(state, graph, circ, op)
                    held = sorted(q for chain in after.chains for q in chain)
                    assert held == sorted(q for chain in state.chains for q in chain)
                    for chain in after.chains:
                        assert len(chain) <= graph.capacity
                    circ2 = circ.mark_executed(op.a) if op.kind == kernel.EXECUTE else circ
                    key = (visited_key(after), frozenset(circ2.executed))
                    if key not in seen:
                        seen.add(key)
                        nxt.append((after, circ2))
                else:
                    assert op not in listed
                    with pytest.raises(IllegalOperationError):
                        apply(state, graph, circ, op)
        frontier = nxt
    assert seen  # sweep actually explored something


# -- kernel against the per-op rules ----------------------------------------------


def successor_states(enc, chains, locks):
    """(code, chains, locks) per kernel.successors code, each state built by kernel.transition."""
    return [
        (code, *kernel.transition(enc, chains, locks, code))
        for code in kernel.successors(enc, chains, locks)
    ]


def beyond_the_trap(n):
    """Shuttling ops that name a vertex id outside 0..n-1."""
    huge = 99999999999999999999
    return [
        Translate(n, 0), Translate(0, n), Translate(n, n + 1), Translate(huge, 1),
        Translate(1, huge), Separate(n), Merge(n), Swap(n), Swap(huge), Merge(77777777777),
    ]


# Gate vertex 2 has junction 1 on its left lateral side, so no state may
# split or merge there, while storage vertex 3 (lateral pair 2, 4) allows
# both: the static site tables must tell the two apart.
#   0 - (1) - [2] - 3 - 4
#        |
#        5 - 6
JUNCTION_LATERAL = trap.TrapGraph(
    {
        0: trap.Vertex(0, trap.VertexKind.STORAGE),
        1: trap.Vertex(1, trap.VertexKind.JUNCTION),
        2: trap.Vertex(2, trap.VertexKind.GATE, frozenset(trap.ELIGIBILITY_FLAGS)),
        3: trap.Vertex(3, trap.VertexKind.STORAGE, frozenset({"separate", "merge", "swap"})),
        4: trap.Vertex(4, trap.VertexKind.STORAGE),
        5: trap.Vertex(5, trap.VertexKind.STORAGE),
        6: trap.Vertex(6, trap.VertexKind.STORAGE),
    },
    frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6)}),
)

WALK_TRAPS = [
    (trap.build_linear(1), 3),
    (trap.build_linear(2), 4),
    (trap.build_linear(4), 4),
    (trap.build_branched(1, 1, 1), 3),
    (trap.build_branched(6, 2, 2), 6),
    (trap.build_eval_layout("ring", 4), 4),
    (trap.build_eval_layout("ring", 6), 6),
    (trap.build_eval_layout("multi_linear", 4), 4),
    (trap.build_eval_layout("multi_linear", 6), 6),
    (trap.build_eval_layout("four_way", 8), 8),
    (JUNCTION_LATERAL, 3),
]


@pytest.mark.parametrize(
    "graph,qubits",
    WALK_TRAPS,
    ids=["linear1", "linear2", "linear4", "branched111", "branched622",
         "ring4", "ring6", "multi_linear4", "multi_linear6", "four_way8",
         "junction_lateral"],
)
def test_kernel_matches_violation_on_random_walks(graph, qubits):
    """Seeded random walks from the initial placement of random circuits.

    On every visited state: allowed_ops is exactly the ops violation()
    accepts, in canonical order; for every shuttling op of every_op and ops
    naming vertex ids beyond the trap, kernel.transition returns None
    exactly when violation() gives a reason, apply lands on the state
    transition returns or raises with that reason in its text, and
    kernel.successors gives exactly the codes transition accepts, in
    canonical order; for every Execute Gate of every_op and one unknown
    gate id, apply raises exactly when violation() gives a reason, with
    that reason in its text; kernel.ready_gates over every one- and
    two-qubit gate, first-layer or not, is the kernel.unready filter; and
    on oracle-sized instances the bfs_next_gate route replays and ends in
    a gate execution.
    """
    oracle = len(graph.vertices) <= ORACLE_MAX_VERTICES and qubits <= 4
    trap_enc = graph.encoded
    gates = every_gate(qubits)
    routes = ready_pairs = 0
    for seed in range(4):
        rng = random.Random(seed)
        circuit = random_circuit(qubits, 4, seed)
        state = initial_placement(circuit, graph)
        for step in range(60):
            legal = [
                op for op in every_op(graph, circuit)
                if violation(state, graph, circuit, op) is None
            ]
            listed = allowed_ops(state, graph, circuit)
            assert listed == sorted(legal)
            accepted = []
            for op in every_op(graph, circuit) + beyond_the_trap(trap_enc[0]):
                if op.kind == kernel.EXECUTE:
                    continue
                after = kernel.transition(trap_enc, state.chains, state.locks, op)
                reason = violation(state, graph, circuit, op)
                assert (after is None) == (reason is not None)
                if after is not None:
                    accepted.append(op)
                    assert apply(state, graph, circuit, op) == TrapState(*after)
                    continue
                with pytest.raises(IllegalOperationError) as rejected:
                    apply(state, graph, circuit, op)
                assert str(rejected.value) == f"{format_op(op)}: {reason}"
            assert kernel.successors(trap_enc, state.chains, state.locks) == sorted(accepted)
            executes = [op for op in every_op(graph, circuit) if isinstance(op, ExecuteGate)]
            for op in executes + [ExecuteGate(len(circuit.gates) + 1)]:
                reason = violation(state, graph, circuit, op)
                if reason is None:
                    assert apply(state, graph, circuit, op) is state
                    continue
                with pytest.raises(IllegalOperationError) as rejected:
                    apply(state, graph, circuit, op)
                assert str(rejected.value) == f"{format_op(op)}: {reason}"
            ready = kernel.ready_gates(trap_enc, state.chains, gates)
            assert ready == unready_filter(trap_enc, state.chains, gates)
            ready_pairs += any(len(gates[gate_id - 1].qubits) == 2 for gate_id in ready)
            if oracle and step % 10 == 0 and circuit.first_layer:
                try:
                    route = bfs_next_gate(state, graph, circuit)
                except NoRouteError:
                    route = ()
                if route:
                    replayed, replay_circuit = state, circuit
                    for op in route:
                        replayed = apply(replayed, graph, replay_circuit, op)
                        if op.kind == kernel.EXECUTE:
                            replay_circuit = replay_circuit.mark_executed(op.a)
                    assert isinstance(route[-1], ExecuteGate)
                    assert sum(isinstance(op, ExecuteGate) for op in route) == 1
                    routes += 1
            if not listed:
                break
            op = rng.choice(listed)
            state = apply(state, graph, circuit, op)
            if op.kind == kernel.EXECUTE:
                circuit = circuit.mark_executed(op.a)
    assert not oracle or routes > 0
    assert ready_pairs > 0


def unready_filter(enc, chains, gates):
    """The ids of `gates` that kernel.unready passes, one gate at a time."""
    return [gate.id for gate in gates if kernel.unready(enc, chains, gate.qubits) is None]


# Two gate vertices side by side, room for three ions each:
#   0 - [1] - [2] - 3
TWO_GATE_SITES = trap.TrapGraph(
    {
        0: trap.Vertex(0, trap.VertexKind.STORAGE),
        1: trap.Vertex(1, trap.VertexKind.GATE, frozenset(trap.ELIGIBILITY_FLAGS)),
        2: trap.Vertex(2, trap.VertexKind.GATE, frozenset(trap.ELIGIBILITY_FLAGS)),
        3: trap.Vertex(3, trap.VertexKind.STORAGE),
    },
    frozenset({(0, 1), (1, 2), (2, 3)}),
    capacity=3,
)

# every_gate(4) numbers (0,) .. (3,) as gates 1-4, then (0, 1) 5, (0, 2) 6,
# (0, 3) 7, (1, 2) 8, (1, 3) 9, (2, 3) 10.
READY_BY_HAND = [
    ({1: (0,), 2: (1,)}, [1, 2]),  # gate 5's operands split between the gate sites
    ({1: (1, 0), 2: (2, 3)}, [5, 10]),  # a pair is ready read either way
    ({1: (0, 1, 2)}, []),  # a stranger shares the operands' chain
    ({1: (0, 2), 3: (1,)}, [6]),  # qubit 0 is not alone, and 1 sits elsewhere
    ({0: (0, 1), 3: (2,)}, []),  # operands alone together, off the gate sites
    ({0: (0,), 1: (3,), 2: (1, 2)}, [4, 8]),
]


@pytest.mark.parametrize("chains,ready", READY_BY_HAND)
def test_ready_gates_on_hand_built_states(chains, ready):
    enc = TWO_GATE_SITES.encoded
    state = TrapState.from_dicts(TWO_GATE_SITES, chains)
    gates = every_gate(4)
    assert kernel.ready_gates(enc, state.chains, gates) == ready
    assert unready_filter(enc, state.chains, gates) == ready


# The digest of tools/rejection_digest.py run at 2 walks of 30 states and 15
# arbitrary states per walk: 171,872 probes. The script's default run, which
# CI pins, probes about 2.1 million.
REJECTION_SHA256 = "857a31f1817fdbbb4e82c6abefd7e25414462d6738f990a1e26b9392578a5f26"

# Every reason violation() gives, with each number written N.
REASON_SHAPES = {
    "no vertex pair (N, N)",
    "vertices N and N are not adjacent",
    "vertex N is empty",
    "vertex N is occupied",
    "junction N was left toward N and cannot be re-entered from there",
    "no vertex N",
    "vertex N does not allow separate",
    "vertex N does not allow merge",
    "vertex N does not allow swap",
    "vertex N has no lateral pair",
    "lateral vertex N is a junction",
    "vertex N holds fewer than two qubits",
    "lateral vertex N is occupied",
    "lateral vertex N is empty",
    "combined chain of N exceeds capacity N",
    "unknown gate N",
    "gate N is not in the first layer",
    "qubit N is not placed",
    "qubits of gate N sit in different vertices",
    "vertex N does not allow gate execution",
    "vertex N holds qubits besides those of gate N",
}


def test_rejection_texts_are_pinned():
    """Every probe of a trimmed rejection-digest run words its op as before, all 21 reasons."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
    from rejection_digest import probe_lines

    digest = hashlib.sha256()
    shapes = set()
    for line in probe_lines(2, 30, 15):
        digest.update(line.encode() + b"\n")
        shapes.add(re.sub(r"\d+", "N", line.split("|", 1)[1]))
    assert shapes == REASON_SHAPES | {"None"}
    assert digest.hexdigest() == REJECTION_SHA256


# -- reachability over-approximation ---------------------------------------------------

SEAL_BRANCHED = trap.build_branched(3, 2, 1)  # stacks 7-8 off junction 1, 9-10 off 5

SEAL_TRAPS = [
    (trap.build_eval_layout("ring", 3), 3),
    (trap.build_eval_layout("ring", 4), 4),
    (trap.build_eval_layout("four_way", 3), 3),
    (trap.build_eval_layout("four_way", 4), 4),
    (trap.build_eval_layout("multi_linear", 3), 3),
    (trap.build_eval_layout("multi_linear", 4), 4),
    (SEAL_BRANCHED, 3),
    (SEAL_BRANCHED, 4),
]

# (chains, locks) of three qubits on SEAL_BRANCHED. In the first, qubit 0 can walk its
# stack but never re-enter junction 1, qubit 1 likewise at junction 5, and
# the empty spine with the gate vertex between them is closed to both. In
# the second, qubit 1 reaches junction 1 along the spine and can rewrite
# its lock, so qubit 0 gets out.
SEALED_BY_HAND = [
    ({8: (0,), 9: (1,), 10: (2,)}, {1: 7, 5: 9}),
    ({8: (0,), 4: (1,), 10: (2,)}, {1: 7}),
]


def every_gate(qubits):
    """Every one- and two-qubit gate on these qubits, numbered from 1."""
    operands = [(q,) for q in range(qubits)] + list(itertools.combinations(range(qubits), 2))
    return [Gate(gate_id, qs) for gate_id, qs in enumerate(operands, start=1)]


def routable(enc, chains, locks, gate):
    """Whether any op sequence executes gate: exhaustive search over kernel successors."""
    seen = {(chains, locks)}
    stack = [(chains, locks)]
    while stack:
        chains, locks = stack.pop()
        if kernel.ready_gates(enc, chains, (gate,)):
            return True
        for _, next_chains, next_locks in successor_states(enc, chains, locks):
            if (next_chains, next_locks) not in seen:
                seen.add((next_chains, next_locks))
                stack.append((next_chains, next_locks))
    return False


def test_reachable_gates_leave_out_only_unroutable_gates():
    """A gate reachable_gates leaves out has no op sequence that executes it.

    States come from seeded random walks over kernel successors, plus the
    hand-built states above; exhaustive search is the reference.
    """
    left_out = left_out_moving = 0
    for graph, qubits in SEAL_TRAPS:
        enc = graph.encoded
        gates = every_gate(qubits)
        states = []
        if graph is SEAL_BRANCHED and qubits == 3:
            for chains, locks in SEALED_BY_HAND:
                state = TrapState.from_dicts(graph, chains, locks)
                states.append((state.chains, state.locks))
        for seed in range(8):
            rng = random.Random(seed)
            placement = initial_placement(random_circuit(qubits, 4, seed), graph)
            chains, locks = placement.chains, placement.locks
            for _ in range(100):
                states.append((chains, locks))
                moves = successor_states(enc, chains, locks)
                if not moves:
                    break
                _, chains, locks = rng.choice(moves)
        for chains, locks in states:
            kept = kernel.reachable_gates(enc, chains, locks, gates)
            for gate in gates:
                if gate.id in kept:
                    continue
                assert not routable(enc, chains, locks, gate), (graph, chains, locks, gate)
                left_out += 1
                left_out_moving += bool(kernel.successors(enc, chains, locks))
    assert left_out_moving > 0
    assert left_out > left_out_moving


def test_bfs_next_gate_raises_at_once_when_sealed(monkeypatch):
    """The oracle raises NoRouteError without searching when no gate is reachable.

    On branched(1,1,1), junction 1 was left toward its stack vertex 7,
    where qubit 1 sits, and junction 5 toward 8, where qubits 0 and 2 sit.
    Neither stack has another exit, so reachable_gates rules both
    first-layer gates out, and the search must not run.
    """
    graph = trap.build_branched(1, 1, 1)
    state = TrapState.from_dicts(graph, {7: (1,), 8: (0, 2)}, {1: 7, 5: 8})
    circuit = Circuit(3, (Gate(1, (0,)), Gate(2, (2, 1))))
    gates = circuit.first_layer
    assert kernel.reachable_gates(graph.encoded, state.chains, state.locks, gates) == []

    def refuse(*args, **kwargs):
        raise AssertionError("bfs_next_gate searched a sealed state")

    monkeypatch.setattr(kernel, "route_search", refuse)
    with pytest.raises(NoRouteError, match="no operation sequence reaches a gate execution"):
        bfs_next_gate(state, graph, circuit)


# -- text form -------------------------------------------------------------------


@pytest.mark.parametrize(
    "op,line",
    [
        (Translate(3, 4), "Translate 3 -> 4"),
        (Separate(7), "Separate 7"),
        (Merge(0), "Merge 0"),
        (Swap(12), "Swap 12"),
        (ExecuteGate(5), "Execute Gate 5"),
    ],
)
def test_op_text_round_trip(op, line):
    assert format_op(op) == line
    assert parse_op(line) == op


@pytest.mark.parametrize(
    "op,code",
    [
        (Translate(3, 4), (kernel.TRANSLATE, 3, 4)),
        (Separate(7), (kernel.SEPARATE, 7, -1)),
        (Merge(0), (kernel.MERGE, 0, -1)),
        (Swap(12), (kernel.SWAP, 12, -1)),
        (ExecuteGate(5), (kernel.EXECUTE, 5, -1)),
        (Translate(-1, 10**30), (kernel.TRANSLATE, -1, 10**30)),
        (Separate(-3), (kernel.SEPARATE, -3, -1)),
        (Merge(77777777777), (kernel.MERGE, 77777777777, -1)),
        (Swap(-1), (kernel.SWAP, -1, -1)),
        (ExecuteGate(-2), (kernel.EXECUTE, -2, -1)),
    ],
)
def test_op_code_round_trip(op, code):
    """An op is its kernel op code, and decode_op types the code back, ids unchecked."""
    assert op == code
    assert decode_op(code) == op
    assert type(decode_op(code)) is type(op)


def test_op_codes_reject_what_is_no_op():
    for kind in (-1, 5):
        with pytest.raises(ValueError):
            decode_op((kind, 0, -1))


OP_TYPES = {
    kernel.TRANSLATE: Translate,
    kernel.SEPARATE: Separate,
    kernel.MERGE: Merge,
    kernel.SWAP: Swap,
    kernel.EXECUTE: ExecuteGate,
}


def step_as_codes(where, graph, state, circuit, run):
    """Step the ops of run from (state, circuit), holding each to be its own kernel op code.

    Each op is of the type its kind names and equals its plain code (kind,
    a, b); a shuttling op steps through kernel.transition as it is, and an
    Execute Gate through apply. Returns the (state, circuit) reached.
    """
    for op in run:
        assert type(op) is OP_TYPES[op.kind], (where, op)
        assert op == tuple(op) == (op.kind, op.a, op.b), (where, op)
        assert op.kind == kernel.TRANSLATE or op.b == -1, (where, op)
        if op.kind == kernel.EXECUTE:
            assert apply(state, graph, circuit, op) is state, (where, op)
            circuit = circuit.mark_executed(op.a)
            continue
        after = kernel.transition(graph.encoded, state.chains, state.locks, op)
        assert after is not None, (where, op)
        state = TrapState(*after)
    return state, circuit


@pytest.mark.parametrize("graph", [LINEAR2, BRANCHED], ids=["linear2", "branched111"])
def test_every_returned_op_is_its_kernel_code(graph):
    """Every public function that returns ops returns ops that are their kernel op codes.

    Checked on the ops of parse_op, dataset.parse_output, allowed_ops,
    compile, compile_many, bfs_next_gate, decompose's slices and
    generate_schedule's schedule, each stepped from where it applies.
    """
    circuits = [random_circuit(3, 4, seed) for seed in range(2)]
    compiled = baseline.compile(circuits[0], graph)
    start, circuit = compiled.placement, compiled.circuit
    runs = {"compile": (start, circuit, compiled.ops)}
    for i, schedule in enumerate(baseline.compile_many(circuits, graph)):
        runs[f"compile_many {i}"] = (schedule.placement, schedule.circuit, schedule.ops)
    runs["parse_op"] = (start, circuit, [parse_op(format_op(op)) for op in compiled.ops])
    runs["bfs_next_gate"] = (start, circuit, bfs_next_gate(start, graph, circuit))
    pieces = decompose(compiled)
    outputs = [render_output(piece, graph, piece.circuit) for piece in pieces]
    for i, (piece, output) in enumerate(zip(pieces, outputs)):
        runs[f"slice {i}"] = (piece.state, piece.circuit, piece.ops)
        runs[f"parse_output {i}"] = (piece.state, piece.circuit, parse_output(output))
    generated, _ = generate_schedule(
        circuit, graph, MockCompletionClient(outputs), clock=lambda: 0.0
    )
    runs["generate_schedule"] = (start, circuit, generated.ops)
    for where, (state, at, run) in runs.items():
        assert run, where
        step_as_codes(where, graph, state, at, run)
    state = start
    for op in compiled.ops:
        for allowed in allowed_ops(state, graph, circuit):
            step_as_codes("allowed_ops", graph, state, circuit, [allowed])
        state, circuit = step_as_codes("compile", graph, state, circuit, [op])


@pytest.mark.parametrize(
    "line",
    [
        "Translate 3 - 4",
        "Translate 3 ->",
        "translate 3 -> 4",
        "Execute Gate",
        "Execute  Gate 5",
        "Merge",
        "Swap x",
        "",
        "Separate 1 2",
        "Translate \u0663 -> \uff14",  # digits, but not ASCII ones
        "Execute Gate \uff11",
        "Swap +1",
        "Merge 1_0",
        "Separate 3\n",  # nothing may follow the number
        " Swap 1",
        "Swap 1 ",
        "Translate 1 -> 2 -> 3",
        "Execute Gate 5 6",
        "Swap " + "9" * 5000,  # past int's digit limit
    ],
)
def test_parse_op_rejects_malformed(line):
    """ValueError is the contract: parse_output and schedule parsing catch just that."""
    with pytest.raises(ValueError):
        parse_op(line)


def test_parse_op_reads_leading_zeros():
    assert parse_op("Swap 007") == Swap(7)
    assert type(parse_op("Swap 007")) is Swap
