"""Schedule replay validation, per-gate decomposition, and the peephole pass."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from shuttlekit import baseline, trap
from shuttlekit import ops as ops_mod
from shuttlekit import schedule as schedule_mod
from shuttlekit.baseline import random_circuit
from shuttlekit.circuit import Circuit, Gate
from shuttlekit.errors import IllegalOperationError, ScheduleError, ScheduleValidationError
from shuttlekit.ops import ExecuteGate, Merge, Separate, Swap, Translate, allowed_ops
from shuttlekit.schedule import (
    Schedule,
    decompose,
    optimize,
    parse_schedule,
    replay,
    schedule_paths,
    serialize_schedule,
    step,
    validate,
)
from shuttlekit.state import TrapState, initial_placement
from test_ops import OUT_OF_RANGE


LINEAR1 = trap.build_linear(1)
LINEAR2 = trap.build_linear(2)
BRANCHED = trap.build_branched(1, 1, 1)


def make_schedule(graph, circuit, placement, ops):
    return Schedule(graph, circuit, TrapState.from_dicts(graph, placement), tuple(ops))


def simple_instance():
    circuit = Circuit(2, (Gate(1, (0, 1)),))
    return make_schedule(LINEAR1, circuit, {1: (0, 1)}, [ExecuteGate(1)])


# -- validate -----------------------------------------------------------------


def test_validate_accepts_direct_execution():
    report = validate(simple_instance())
    assert report.ok
    assert report.gates_executed == 1
    assert report.failure_index is None
    assert report.final_state == TrapState.from_dicts(LINEAR1, {1: (0, 1)})


def illegal_op_schedule():
    circuit = Circuit(2, (Gate(1, (0, 1)),))
    return make_schedule(
        LINEAR1,
        circuit,
        {1: (0, 1)},
        [Swap(1), Translate(1, 0), Translate(1, 2), ExecuteGate(1)],
    )


def missing_gates_schedule():
    circuit = Circuit(2, (Gate(1, (0, 1)), Gate(2, (0, 1))))
    return make_schedule(LINEAR1, circuit, {1: (0, 1)}, [ExecuteGate(1)])


def trailing_ops_schedule():
    circuit = Circuit(2, (Gate(1, (0, 1)),))
    return make_schedule(
        LINEAR1, circuit, {1: (0, 1)}, [ExecuteGate(1), Translate(1, 0)]
    )


def junction_occupied_schedule():
    # bystander parked on junction 1 while the only gate executes
    circuit = Circuit(2, (Gate(1, (0,)),))
    return make_schedule(BRANCHED, circuit, {3: (0,), 1: (1,)}, [ExecuteGate(1)])


INVALID_SCHEDULES = [
    illegal_op_schedule,
    missing_gates_schedule,
    trailing_ops_schedule,
    junction_occupied_schedule,
]


def test_validate_reports_first_illegal_op():
    report = validate(illegal_op_schedule())
    assert not report.ok
    assert report.failure_index == 2  # vertex 1 emptied by the first translate
    assert "Translate 1 -> 2" in report.reason


def test_validate_flags_missing_gates():
    report = validate(missing_gates_schedule())
    assert not report.ok
    assert report.reason == "unexecuted gates remain (1 of 2)"
    assert report.gates_executed == 1


def test_validate_flags_trailing_ops():
    report = validate(trailing_ops_schedule())
    assert not report.ok
    assert report.reason == "trailing operations after the final gate"
    assert report.failure_index == 1


def test_validate_trailing_rule_beats_junction_rule():
    # ops after the final gate trip the trailing rule even when they also
    # leave a chain resting on a junction
    circuit = Circuit(1, (Gate(1, (0,)),))
    gate_vertex = next(iter(BRANCHED.gate_vertices))
    assert gate_vertex == 3
    sched = make_schedule(
        BRANCHED,
        circuit,
        {3: (0,)},
        [ExecuteGate(1), Translate(3, 2), Translate(2, 1)],
    )
    report = validate(sched)
    assert not report.ok
    assert report.reason == "trailing operations after the final gate"


def test_validate_flags_junction_occupied_at_end():
    report = validate(junction_occupied_schedule())
    assert not report.ok
    assert report.reason == "junction 1 occupied at the end"


# -- decompose ----------------------------------------------------------------


def compiled(qubits, depth, seed, graph=None):
    graph = graph or trap.build_linear(qubits)
    circuit = random_circuit(qubits, depth, seed)
    return baseline.compile(circuit, graph)


def test_decompose_one_slice_per_gate():
    sched = compiled(3, 3, 11)
    slices = decompose(sched)
    assert len(slices) == len(sched.circuit.gates)
    for entry in slices:
        assert isinstance(entry.ops[-1], ExecuteGate)
        assert sum(isinstance(op, ExecuteGate) for op in entry.ops) == 1


def test_decompose_concat_identity():
    for seed in range(6):
        sched = compiled(4, 4, seed)
        slices = decompose(sched)
        rebuilt = tuple(op for entry in slices for op in entry.ops)
        assert rebuilt == sched.ops


def test_decompose_slice_states_chain_together():
    sched = compiled(3, 4, 2)
    slices = decompose(sched)
    state, circuit = sched.placement, sched.circuit
    for entry in slices:
        assert entry.state == state
        assert entry.circuit.executed == circuit.executed
        for op in entry.ops:
            state, circuit = step(sched.graph, state, circuit, op)


def test_decompose_immediate_execute_slice():
    sched = simple_instance()
    slices = decompose(sched)
    assert len(slices) == 1
    assert slices[0].ops == (ExecuteGate(1),)
    assert slices[0].ops[-1].a == 1


def test_decompose_rejects_invalid_schedule():
    with pytest.raises(ScheduleValidationError) as exc:
        decompose(missing_gates_schedule())
    assert "unexecuted" in str(exc.value)


@pytest.mark.parametrize("build", INVALID_SCHEDULES, ids=lambda build: build.__name__)
def test_decompose_raises_the_validate_report(build):
    """On every call: an invalid schedule holds no slices."""
    sched = build()
    for _ in range(2):
        with pytest.raises(ScheduleValidationError) as exc:
            decompose(sched)
        assert exc.value.report == validate(sched)


def test_decompose_hands_out_fresh_lists_of_the_held_slices(monkeypatch):
    """The first decomposition replays the schedule; later ones copy the slices it holds."""
    sched = compiled(3, 4, 5)
    first = decompose(sched)
    first.clear()

    def replay_again(*args):
        raise AssertionError("decompose replayed a schedule that holds its slices")

    monkeypatch.setattr(schedule_mod, "replay", replay_again)
    again = decompose(sched)
    assert again == decompose(sched) and again is not decompose(sched)
    assert len(again) == len(sched.circuit.gates)


# -- optimize -----------------------------------------------------------------


@pytest.mark.parametrize("build", INVALID_SCHEDULES, ids=lambda build: build.__name__)
def test_optimize_raises_only_on_an_illegal_op(build):
    """optimize needs legal ops, not a complete schedule: the end conditions are validate's."""
    sched = build()
    report = validate(sched)
    if report.final_state is None:
        with pytest.raises(IllegalOperationError) as exc:
            run_optimize(sched)
        assert str(exc.value) == report.reason
    else:
        assert run_optimize(sched) == sched.ops


def run_optimize(sched):
    return tuple(optimize(sched.ops, sched.graph, sched.circuit, sched.placement))


def test_optimize_removes_back_and_forth():
    circuit = Circuit(2, (Gate(1, (0, 1)),))
    sched = make_schedule(
        LINEAR1, circuit, {1: (0, 1)}, [Translate(1, 0), Translate(0, 1), ExecuteGate(1)]
    )
    assert run_optimize(sched) == (ExecuteGate(1),)


def test_optimize_collapses_pair_stack_to_nothing():
    ops = (Separate(1), Merge(1), Swap(1), Swap(1))
    out = optimize(ops, LINEAR1, Circuit(2, ()), TrapState.from_dicts(LINEAR1, {1: (0, 1)}))
    assert tuple(out) == ()


def test_optimize_keeps_noncancelling_merge_separate():
    # capacity 3: [a] + [b,c] merge to [a,b,c]; separate puts [a,b] left,
    # which is not the partition we started from, so the pair must stay.
    graph = trap.build_linear(1, capacity=3)
    circuit = Circuit(3, ())
    state = TrapState.from_dicts(graph, {0: (0,), 2: (1, 2)})
    ops = (Merge(1), Separate(1))
    assert tuple(optimize(ops, graph, circuit, state)) == ops


def test_optimize_keeps_junction_bounce():
    # translating into a junction and back rewrites the junction lock, so
    # the pair is not state-neutral and must survive
    circuit = Circuit(1, ())
    state = TrapState.from_dicts(BRANCHED, {2: (0,)})
    ops = (Translate(2, 1), Translate(1, 2))
    assert tuple(optimize(ops, BRANCHED, circuit, state)) == ops
    # even with a pre-existing lock elsewhere the exit rewrites it, so the
    # bounce is never state-neutral
    state2 = TrapState.from_dicts(BRANCHED, {2: (0,)}, {1: 0})
    assert tuple(optimize(ops, BRANCHED, circuit, state2)) == ops


def test_optimize_is_idempotent_and_never_grows():
    rng = random.Random(5)
    for seed in range(8):
        sched = compiled(rng.randrange(2, 5), 4, seed)
        once = run_optimize(sched)
        assert len(once) <= len(sched.ops)
        twice = tuple(optimize(once, sched.graph, sched.circuit, sched.placement))
        assert twice == once


# (trap, qubits) pairs whose compiled schedules end with junction locks set
JUNCTION_TRAPS = [
    (trap.build_branched(2, 1, 1), 3),
    (trap.build_eval_layout("ring", 4), 4),
]


def test_optimize_preserves_execute_subsequence_and_final_state():
    rng = random.Random(17)
    cases = [compiled(4, 5, seed) for seed in range(6)]
    for graph, qubits in JUNCTION_TRAPS:
        for seed in range(4):
            cases.append(inject_pairs(compiled(qubits, 4, seed, graph), rng)[0])
    locked = 0
    for sched in cases:
        out = run_optimize(sched)
        gates = [op.a for op in sched.ops if isinstance(op, ExecuteGate)]
        assert [op.a for op in out if isinstance(op, ExecuteGate)] == gates
        slim = Schedule(sched.graph, sched.circuit, sched.placement, tuple(out))
        before, after = validate(sched), validate(slim)
        assert after.ok
        assert after.final_state == before.final_state
        locked += any(lock != -1 for lock in after.final_state.locks)
    assert locked >= 2 * 4


def inject_pairs(sched, rng):
    """Insert state-neutral adjacent pairs at random legal points."""
    ops = list(sched.ops)
    states = [sched.placement]
    circuit = sched.circuit
    for op in ops:
        state, circuit = step(sched.graph, states[-1], circuit, op)
        states.append(state)
    # circuit references per index are not needed: injected pairs never
    # execute gates, and translate/swap legality is circuit-independent.
    # A spot is the state before some op: a pair after the last op would
    # trail the final gate execution.
    spots = []
    for index, state in enumerate(states[:-1]):
        for vertex, chain in enumerate(state.chains):
            if not chain:
                continue
            if sched.graph.allows(vertex, "swap") and len(chain) >= 2:
                spots.append((index, (Swap(vertex), Swap(vertex))))
            for n in sorted(sched.graph.neighbors(vertex)):
                if state.chains[n] or sched.graph.is_junction(n):
                    continue
                if sched.graph.is_junction(vertex):
                    continue
                spots.append((index, (Translate(vertex, n), Translate(n, vertex))))
    if not spots:
        return sched, 0
    picks = rng.sample(spots, min(3, len(spots)))
    for index, pair in sorted(picks, key=lambda s: -s[0]):
        ops[index:index] = list(pair)
    injected = Schedule(sched.graph, sched.circuit, sched.placement, tuple(ops))
    assert validate(injected).ok or not sched.ops
    return injected, len(picks)


def test_optimize_removes_injected_redundancy():
    rng = random.Random(99)
    for seed in range(10):
        sched = compiled(rng.randrange(2, 5), 4, seed)
        clean = Schedule(sched.graph, sched.circuit, sched.placement, run_optimize(sched))
        injected, count = inject_pairs(clean, rng)
        if count == 0:
            continue
        out = optimize(injected.ops, sched.graph, sched.circuit, sched.placement)
        assert tuple(out) == clean.ops


# The pair shapes optimize first cancelled by, before it relied on every
# shuttling op changing the state and only its inverse undoing it.
PAIR_SHAPES = (
    lambda a, b: isinstance(a, Translate) and isinstance(b, Translate)
    and a.src == b.dst and a.dst == b.src,
    lambda a, b: isinstance(a, Merge) and isinstance(b, Separate) and a.a == b.a,
    lambda a, b: isinstance(a, Separate) and isinstance(b, Merge) and a.a == b.a,
    lambda a, b: isinstance(a, Swap) and isinstance(b, Swap) and a.a == b.a,
)


def shape_rule_optimize(ops, graph, circuit, state):
    """optimize with a pair cancelling only in one of PAIR_SHAPES."""
    kept = []
    for op in ops:
        after, circuit = step(graph, state, circuit, op)
        top = kept[-1] if kept else None
        if top and any(shape(top[0], op) for shape in PAIR_SHAPES) and after == top[1]:
            kept.pop()
        else:
            kept.append((op, state))
        state = after
    return [op for op, _ in kept]


def inverse(op):
    if isinstance(op, Translate):
        return Translate(op.dst, op.src)
    if isinstance(op, Merge):
        return Separate(op.a)
    if isinstance(op, Separate):
        return Merge(op.a)
    return op if isinstance(op, Swap) else None


def undo_biased_walk(graph, circuit, rng, length):
    """Random legal ops from the placement; 40% of the time, undo the last one if legal.

    The walk stops early where no op is legal.
    """
    state = initial_placement(circuit, graph)
    ops = []
    for _ in range(length):
        legal = allowed_ops(state, graph, circuit)
        if not legal:
            break
        undo = inverse(ops[-1]) if ops and rng.random() < 0.4 else None
        op = undo if undo in legal else rng.choice(legal)
        ops.append(op)
        state, circuit = step(graph, state, circuit, op)
    return ops


WALK_TRAPS = [
    (trap.build_linear(2), 3),
    (trap.build_linear(2, capacity=3), 4),
    (trap.build_branched(2, 1, 1), 3),
    (trap.build_branched(3, 2, 1), 4),
    (trap.build_eval_layout("ring", 4), 4),
    (trap.build_eval_layout("four_way", 4), 4),
    (trap.build_eval_layout("multi_linear", 4), 4),
]


@pytest.mark.parametrize(
    "graph,qubits",
    WALK_TRAPS,
    ids=["linear2", "linear2_cap3", "branched211", "branched321", "ring4", "four_way4",
         "multi_linear4"],
)
def test_optimize_cancels_as_the_pair_shape_rule_did(graph, qubits):
    """A pair that returns to its start is always one of the old deletable shapes."""
    removed = 0
    for seed in range(25):
        rng = random.Random(seed)
        circuit = random_circuit(qubits, 4, seed)
        ops = undo_biased_walk(graph, circuit, rng, 60)
        placement = initial_placement(circuit, graph)
        out = optimize(ops, graph, circuit, placement)
        assert out == shape_rule_optimize(ops, graph, circuit, placement)
        removed += len(ops) - len(out)
    assert removed > 0


def execute_biased_walk(graph, circuit, rng, length):
    """Random legal ops that execute a ready gate half the time and often undo.

    40% of the other steps undo the last shuttling op if legal, even across
    an Execute Gate. The walk stops early where no op is legal, and is cut
    after its last Execute Gate.
    """
    state = initial_placement(circuit, graph)
    ops, undo = [], None
    for _ in range(length):
        legal = allowed_ops(state, graph, circuit)
        if not legal:
            break
        ready = [op for op in legal if isinstance(op, ExecuteGate)]
        if ready and rng.random() < 0.5:
            op = rng.choice(ready)
        else:
            op = undo if undo in legal and rng.random() < 0.4 else rng.choice(legal)
        if not isinstance(op, ExecuteGate):
            undo = inverse(op)
        ops.append(op)
        state, circuit = step(graph, state, circuit, op)
    while ops and not isinstance(ops[-1], ExecuteGate):
        ops.pop()
    return ops


@given(cell=st.sampled_from(WALK_TRAPS), seed=st.integers(0, 2**32), length=st.integers(1, 80))
@settings(max_examples=60, deadline=None)
def test_no_cancellation_crosses_an_execute_gate(cell, seed, length):
    """replay's kept ops are each of its slices' own kept ops, concatenated."""
    graph, qubits = cell
    rng = random.Random(seed)
    circuit = random_circuit(qubits, 4, seed)
    ops = execute_biased_walk(graph, circuit, rng, length)
    report, slices, kept, _ = replay(graph, initial_placement(circuit, graph), circuit, ops)
    assert report.final_state is not None
    assert [op for piece in slices for op in piece.ops] == ops
    pieces = [replay(graph, piece.state, piece.circuit, piece.ops)[2] for piece in slices]
    assert kept == [op for piece_kept in pieces for op in piece_kept]


# -- files --------------------------------------------------------------------


def test_serialize_parse_round_trip():
    sched = compiled(3, 4, 8)
    text = serialize_schedule(sched, "trap.json", "circ.qasm")
    assert schedule_paths(text) == ("trap.json", "circ.qasm")
    back = parse_schedule(text, sched.graph, sched.circuit)
    assert back.ops == sched.ops
    assert back.placement == sched.placement
    assert serialize_schedule(back, "trap.json", "circ.qasm") == text


def test_parse_schedule_reports_line_numbers():
    sched = simple_instance()
    text = serialize_schedule(sched, "t", "c")
    bad = text.replace("Execute Gate 1", "Teleport 0 -> 2")
    with pytest.raises(ScheduleError, match=r"line \d+"):
        parse_schedule(bad, sched.graph, sched.circuit)


def test_parse_schedule_rejects_duplicate_placement():
    sched = simple_instance()
    text = serialize_schedule(sched, "t", "c")
    lines = text.splitlines()
    placement = [l for l in lines if l.startswith("placement:")][0]
    lines.insert(lines.index(placement), placement)
    with pytest.raises(ScheduleError, match="duplicate placement"):
        parse_schedule("\n".join(lines) + "\n", sched.graph, sched.circuit)


@pytest.mark.parametrize(
    "placement",
    ["qubit \u0660 at [1,0]", "qubit +0 at [1,0]", "qubit 0 at [\uff11,0]", "qubit 0 at [1,-0]",
     "qubit 0 at [1,0,0]"],
    ids=["arabic_indic_qubit", "signed_qubit", "fullwidth_vertex", "signed_position", "three"],
)
def test_parse_schedule_reads_placement_fields_in_ascii_digits(placement):
    text = serialize_schedule(simple_instance(), "t", "c")
    bad = text.replace("placement: qubit 0 at [1,0]", f"placement: {placement}")
    with pytest.raises(ScheduleError, match="^line 3: malformed placement"):
        parse_schedule(bad, LINEAR1, simple_instance().circuit)


def test_parse_schedule_surfaces_replay_failure():
    sched = simple_instance()
    text = serialize_schedule(sched, "t", "c")
    hacked = text.replace("Execute Gate 1", "Translate 0 -> 2\nExecute Gate 1")
    with pytest.raises(ScheduleValidationError) as exc:
        parse_schedule(hacked, sched.graph, sched.circuit)
    assert exc.value.report.failure_index == 0
    # Vertex ids far outside the trap are rejected by replay with a reason.
    for line, reason in OUT_OF_RANGE:
        hacked = text.replace("Execute Gate 1", f"{line}\nExecute Gate 1")
        with pytest.raises(ScheduleValidationError) as exc:
            parse_schedule(hacked, sched.graph, sched.circuit)
        report = exc.value.report
        assert (report.failure_index, report.reason) == (0, f"{line}: {reason}")


def test_parse_schedule_replay_can_be_deferred():
    sched = simple_instance()
    text = serialize_schedule(sched, "t", "c")
    hacked = text.replace("Execute Gate 1", "Translate 0 -> 2\nExecute Gate 1")
    parsed = parse_schedule(hacked, sched.graph, sched.circuit, replay=False)
    assert not validate(parsed).ok


def test_parse_schedule_and_decompose_share_one_replay(monkeypatch):
    """decompose reads the slices of parse_schedule's validating replay; validate replays anew."""
    compiled = baseline.compile(random_circuit(3, 6, 0), LINEAR2)
    text = serialize_schedule(compiled, "t", "c")
    applied = []
    apply = ops_mod.apply
    monkeypatch.setattr(ops_mod, "apply", lambda *args: applied.append(args[-1]) or apply(*args))
    parsed = parse_schedule(text, LINEAR2, compiled.circuit, replay=True)
    slices = decompose(parsed)
    assert tuple(op for piece in slices for op in piece.ops) == parsed.ops
    assert len(applied) == len(parsed.ops)
    assert validate(parsed).ok
    assert len(applied) == 2 * len(parsed.ops)


def test_schedule_paths_requires_header():
    with pytest.raises(ScheduleError):
        schedule_paths("placement: qubit 0 at [1,0]\nExecute Gate 1\n")
