"""The compiler on the evaluation layouts: valid schedules with pinned op counts.

The op counts and the schedule digest are the compiler's output when the
tests were written; a change to the router that moves one must say so by
updating the table or the digest. The search estimate is checked against
its defining formula on random walk states. The router's failure messages
say which way it failed, its slices never end on a junction, and each
slice executes the lowest-numbered ready first-layer gate. A batch
compiles each circuit as its own compile does, and the search it shares
between circuits is blind to qubit labels. The router's search,
kernel.route_search with its integer key as the only state, finds what a
tuple-keyed best-first loop over kernel.successors and kernel.transition
finds, the positions it carries from parent to child are those of the
chains each key holds, and its per-chain tables hold only the codes it
meets. The next-gate oracle, route_search at uniform cost, answers as
breadth-first search did.
"""

import hashlib
import heapq
import random
import tracemalloc

import pytest

from shuttlekit import baseline, kernel, ops, trap
from shuttlekit import schedule as schedule_mod
from shuttlekit.circuit import Circuit, Gate
from shuttlekit.errors import CompileError, NoRouteError
from shuttlekit.ops import format_op
from shuttlekit.schedule import decompose, replay, validate
from shuttlekit.state import TrapState, initial_placement
from test_ops import WALK_TRAPS, successor_states

# (layout, qubits) -> op counts of random_circuit(qubits, 4, seed) for seeds 0, 1, 2.
EVAL_OPS = {
    ("ring", 3): (38, 21, 43),
    ("ring", 4): (44, 58, 47),
    ("multi_linear", 3): (32, 21, 43),
    ("multi_linear", 4): (33, 58, 58),
    ("four_way", 3): (32, 20, 37),
    ("four_way", 4): (38, 57, 64),
}


@pytest.mark.parametrize(
    "kind,qubits,seed",
    [(kind, qubits, seed) for kind, qubits in EVAL_OPS for seed in range(3)],
)
def test_compile_on_eval_layouts(kind, qubits, seed):
    graph = trap.build_eval_layout(kind, qubits)
    schedule = baseline.compile(baseline.random_circuit(qubits, 4, seed), graph)
    report = validate(schedule)
    assert report.ok, report.reason
    assert len(schedule.ops) == EVAL_OPS[kind, qubits][seed]


def test_sealed_router_fails_before_searching(monkeypatch):
    """Junction locks box the router in at gate 22; it must stop there at once.

    Counted in search expansions, not seconds: searching from the sealed
    state spends its whole budget, 250,000 expansions, for nothing.
    """
    work = counting_searches(monkeypatch)
    with pytest.raises(CompileError, match="junction locks seal gate 22's operands"):
        baseline.compile(baseline.random_circuit(6, 6, 1), trap.build_branched(6, 2, 2))
    assert 0 < work.expansions < 10_000


def test_exhausted_search_says_so_with_the_states_searched():
    """linear(1) q3 circuit 0: the search runs out of states, not out of budget."""
    with pytest.raises(CompileError) as failure:
        baseline.compile(baseline.random_circuit(3, 6, 0), trap.build_linear(1))
    message = str(failure.value)
    assert message.startswith(
        "no op sequence from the router's current state executes gate 5 or any "
        "other first-layer gate with every junction empty: all 6 states reachable "
        "from it were searched;"
    )
    assert "gave up" not in message
    assert "does not prove that the circuit has no schedule" in message


def test_spent_cap_says_the_router_gave_up(monkeypatch):
    monkeypatch.setattr(baseline, "_SEARCH_CAP", 3)
    with pytest.raises(CompileError) as failure:
        baseline.compile(baseline.random_circuit(6, 6, 0), trap.build_linear(6))
    message = str(failure.value)
    assert "the router gave up on gate" in message
    assert "after 3 search expansions (limit 3) and" in message
    assert "does not prove that the circuit has no schedule" in message


def test_a_frontier_that_runs_out_at_the_cap_was_searched_not_spent(monkeypatch):
    """linear(1) q3 circuit 0: its last search empties its frontier in exactly 6 expansions.

    With the cap at 6 that search is exhausted, not spent, and says every
    state was searched; at 5 it stops with states left, which is a spent
    cap. The compile's one earlier search takes 3 expansions.
    """
    results = []
    route_search = kernel.route_search

    def recorded(*args, **kwargs):
        results.append(route_search(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(kernel, "route_search", recorded)
    circuit, graph = baseline.random_circuit(3, 6, 0), trap.build_linear(1)
    for cap, spent, message in (
        (6, False, "all 6 states reachable from it were searched"),
        (5, True, r"the router gave up on gate 5 after 5 search expansions \(limit 5\)"),
    ):
        monkeypatch.setattr(baseline, "_SEARCH_CAP", cap)
        with pytest.raises(CompileError, match=message):
            baseline.compile(circuit, graph)
        assert results[-1][:3] == (None, spent, cap)


def test_occupancy_deadlock_on_branched_8_compiles():
    """Chains packed so tight that they block each other's way; no lock seals them."""
    schedule = baseline.compile(baseline.random_circuit(8, 6, 1), trap.build_branched(8, 2, 2))
    report = validate(schedule)
    assert report.ok, report.reason


JUNCTION_CELLS = [
    (trap.build_eval_layout("ring", 4), 4, range(4)),
    (trap.build_eval_layout("four_way", 5), 5, range(4)),
    (trap.build_branched(3, 2, 1), 3, range(4)),
    (trap.build_branched(3, 2, 1), 4, range(4)),
    (trap.build_branched(6, 2, 2), 6, range(1)),
]


@pytest.mark.parametrize(
    "graph,qubits,seeds",
    JUNCTION_CELLS,
    ids=["ring4", "four_way5", "branched321_q3", "branched321_q4", "branched622_q6"],
)
def test_every_slice_starts_with_junctions_empty(graph, qubits, seeds):
    """No slice ends with a chain on a junction, so the next one starts clear."""
    for seed in seeds:
        schedule = baseline.compile(baseline.random_circuit(qubits, 6, seed), graph)
        for piece in decompose(schedule):
            occupied = [
                v for v, chain in enumerate(piece.state.chains) if chain and graph.is_junction(v)
            ]
            assert occupied == [], (seed, piece.ops[-1].a, occupied)


def test_compile_steps_each_op_once(monkeypatch):
    """The router commits through kernel.transition; schedule.replay is the one replay of its ops.

    Past the placement, every TrapState comes from an ops.apply of that
    replay, so the router neither builds nor steps one. An Execute Gate
    returns the state it is given, so each shuttling op builds one state.
    The schedule holds the slices that replay cut, so decomposing it steps
    no op again.
    """
    applied, shuttled, built, received = 0, 0, 0, []
    apply, new, replay = ops.apply, TrapState.__new__, schedule_mod.replay

    def counted(*args):
        nonlocal applied, shuttled
        applied += 1
        shuttled += not isinstance(args[-1], ops.ExecuteGate)
        return apply(*args)

    def counted_build(cls, *args):
        nonlocal built
        built += 1
        return new(cls, *args)

    def recorded(graph, state, circuit, op_list):
        received.append(len(op_list))
        return replay(graph, state, circuit, op_list)

    monkeypatch.setattr(ops, "apply", counted)
    monkeypatch.setattr(TrapState, "__new__", counted_build)
    monkeypatch.setattr(schedule_mod, "replay", recorded)
    schedule = baseline.compile(
        baseline.random_circuit(4, 6, 0), trap.build_eval_layout("ring", 4)
    )
    assert applied == received[0] == len(schedule.ops) > 0
    assert built == 1 + shuttled
    assert len(decompose(schedule)) == len(schedule.circuit.gates)
    assert (received, applied) == ([len(schedule.ops)], len(schedule.ops))


# A cell or two of every built-in trap family.
FAMILY_CELLS = [
    (trap.build_linear(3), 3),
    (trap.build_linear(5), 5),
    (trap.build_branched(3, 2, 1), 4),
    (trap.build_eval_layout("ring", 4), 4),
    (trap.build_eval_layout("multi_linear", 4), 4),
    (trap.build_eval_layout("four_way", 5), 5),
]


def test_router_emits_the_ops_replay_keeps(monkeypatch):
    """Each schedule is its router's decoded codes, which replay's optimizer keeps whole.

    A route never revisits a state, so none of its ops undoes an earlier
    one, and no cancellation crosses an Execute Gate.
    """
    emitted = []
    route = baseline._route

    def recorded(*args):
        codes = route(*args)
        emitted.append(codes)
        return codes

    monkeypatch.setattr(baseline, "_route", recorded)
    for graph, qubits in FAMILY_CELLS:
        emitted.clear()
        circuits = [baseline.random_circuit(qubits, 6, seed) for seed in range(6)]
        for schedule, codes in zip(baseline.compile_many(circuits, graph), emitted):
            assert schedule.ops == tuple(ops.decode_op(code) for code in codes)
            kept = replay(graph, schedule.placement, schedule.circuit, schedule.ops)[2]
            assert tuple(kept) == schedule.ops
        assert len(emitted) == len(circuits)


def test_compile_makes_no_successor_scan(monkeypatch):
    """compile and compile_many commit each op through kernel.transition alone."""
    calls = 0
    successors = kernel.successors

    def counted(*args):
        nonlocal calls
        calls += 1
        return successors(*args)

    monkeypatch.setattr(kernel, "successors", counted)
    ring = trap.build_eval_layout("ring", 4)
    baseline.compile(baseline.random_circuit(4, 6, 0), ring)
    list(baseline.compile_many([baseline.random_circuit(4, 6, seed) for seed in range(3)], ring))
    list(baseline.compile_many([baseline.random_circuit(5, 6, 0)], trap.build_linear(5)))
    assert calls == 0


@pytest.mark.parametrize(
    "code,text",
    [
        ((kernel.TRANSLATE, 0, 0), "Translate 0 -> 0"),
        ((kernel.TRANSLATE, 0, 2), "Translate 0 -> 2"),
        ((kernel.TRANSLATE, 5, 4), "Translate 5 -> 4"),
        ((kernel.SEPARATE, 99, -1), "Separate 99"),
        ((kernel.EXECUTE, 1, -1), "Execute Gate 1"),
    ],
    ids=["self_loop", "not_adjacent", "beyond_the_trap", "separate_beyond_the_trap", "execute"],
)
def test_illegal_memo_route_is_a_router_defect(code, text):
    """A route the kernel rejects fails the compile with a message, not a traceback.

    The memo's every lookup finds a route of the one illegal `code`. On
    linear(2), 0 - 1 - [2] - 3 - 4, gate 1 executes where placement leaves
    qubit 0, and gate 2 needs a route for qubit 1.
    """
    class IllegalRoutes(dict):
        def get(self, key, default=None):
            return (code,)

    graph = trap.build_linear(2)
    circuit = Circuit(2, (Gate(1, (0,)), Gate(2, (1,))))
    placement = initial_placement(circuit, graph)
    tables = baseline._search_tables(graph)
    with pytest.raises(CompileError) as failure:
        baseline._route(
            graph.encoded, tables, IllegalRoutes(), circuit, placement.chains, placement.locks
        )
    assert str(failure.value) == (
        f"the route to gate 2 takes {text}, which is illegal in the router's current "
        "state; this is a router defect, which does not prove that the circuit has no "
        "schedule"
    )


def test_compile_refuses_a_schedule_replay_rejects(monkeypatch):
    """A router that leaves an op after the last gate fails the compile, naming replay's reason."""

    route = baseline._route

    def separate_at_the_end(trap, tables, routes, circuit, chains, locks):
        codes = route(trap, tables, routes, circuit, chains, locks)
        for code in codes:
            if code[0] != kernel.EXECUTE:
                chains, locks = kernel.transition(trap, chains, locks, code)
        vertex = next(v for v, chain in enumerate(chains) if len(chain) > 1)
        return [*codes, (kernel.SEPARATE, vertex, -1)]

    monkeypatch.setattr(baseline, "_route", separate_at_the_end)
    with pytest.raises(CompileError) as failure:
        baseline.compile(Circuit(2, (Gate(1, (0, 1)),)), trap.build_linear(1))
    assert str(failure.value) == (
        "replay rejects the router's schedule: trailing operations after the final gate; "
        "this is a router defect, which does not prove that the circuit has no schedule"
    )


# The schedules of random_circuit(q, 6, seed), seeds 0-3, on three traps: ring
# q4 (6 vertices, exact search, a junction whose exits pay the seal
# penalty), linear(5) q5 (11 vertices, greedy search) and four_way q5
# (greedy search across junctions). A change to the router that moves any
# op must say so by updating the digest.
GOLDEN_GRID = [
    (trap.build_eval_layout("ring", 4), 4),
    (trap.build_linear(5), 5),
    (trap.build_eval_layout("four_way", 5), 5),
]
GOLDEN_SHA256 = "9d212931276a53cc7aee06847a37a669d0507aec4be92486d0fbaac7e54c28fd"


def test_compiled_schedules_match_golden_digest():
    digest = hashlib.sha256()
    for graph, qubits in GOLDEN_GRID:
        for seed in range(4):
            schedule = baseline.compile(baseline.random_circuit(qubits, 6, seed), graph)
            digest.update("\n".join(map(format_op, schedule.ops)).encode() + b"\n\n")
    assert digest.hexdigest() == GOLDEN_SHA256


# -- search estimate against its defining formula ------------------------------

# Two gate vertices, 0 and 2, which no built-in family has, so the estimate
# takes its minimum over more than one: 3 - 1 - [0] - [2], capacity 3.
TWO_GATES = trap.TrapGraph(
    {
        0: trap.Vertex(0, trap.VertexKind.GATE, frozenset({"gate", "merge", "separate"}), (1, 2)),
        1: trap.Vertex(1, trap.VertexKind.STORAGE),
        2: trap.Vertex(2, trap.VertexKind.GATE, frozenset({"gate", "merge", "separate"})),
        3: trap.Vertex(3, trap.VertexKind.STORAGE),
    },
    frozenset({(0, 1), (0, 2), (1, 3)}),
    capacity=3,
)

HEURISTIC_TRAPS = [
    (trap.build_eval_layout("ring", 4), 4),
    (trap.build_eval_layout("four_way", 5), 5),
    (trap.build_eval_layout("multi_linear", 4), 4),
    (trap.build_branched(3, 2, 1), 4),
    (trap.build_linear(3), 3),
    (TWO_GATES, 3),
]


def reference_heuristic(graph, gates, chains, greedy):
    """The search estimate as a direct scan over gate vertices and occupied vertices."""
    n = len(graph.vertices)
    far = 4 * n + 8
    tables = []
    for g in graph.gate_vertices:
        d = trap.bfs_distances(graph, g)
        tables.append([d.get(v, far) for v in range(n)])
    apd = []
    for v in range(n):
        d = trap.bfs_distances(graph, v)
        apd.append([d.get(w, far) for w in range(n)])
    stranger_w, corridor_w = (3, 2) if greedy else (1, 0)
    pos = {}
    occupied = []
    for v, chain in enumerate(chains):
        if chain:
            occupied.append(v)
            for q in chain:
                pos[q] = v
    best = far
    for gate in gates:
        qs = gate.qubits
        if len(qs) == 1:
            va = vb = pos[qs[0]]
            dirt = stranger_w * (len(chains[va]) - 1)
        else:
            va, vb = pos[qs[0]], pos[qs[1]]
            if va == vb:
                dirt = stranger_w * (len(chains[va]) - 2)
            else:
                dirt = stranger_w * (len(chains[va]) + len(chains[vb]) - 2)
        for t in tables:
            cand = t[va] + dirt + 1
            if vb != va:
                cand += t[vb]
            if corridor_w:
                for w in occupied:
                    if w == va or w == vb:
                        continue
                    if apd[va][w] + t[w] == t[va] or apd[vb][w] + t[w] == t[vb]:
                        cand += corridor_w
            best = min(best, cand)
    return best


@pytest.mark.parametrize(
    "graph,qubits",
    HEURISTIC_TRAPS,
    ids=["ring4", "four_way5", "multi_linear4", "branched321", "linear3", "two_gates3"],
)
def test_search_estimate_matches_reference_on_random_walks(graph, qubits):
    """The table-driven search estimate equals the direct formula.

    On seeded walk states, in both exact and greedy mode, read through each
    state's kernel.state_key and kernel.positions; it is also 1 exactly
    when kernel.ready_gates finds a gate, which the search relies on to
    skip that call elsewhere.
    """
    enc = graph.encoded
    tables = baseline._search_tables(graph)
    layout = kernel.key_layout(enc, qubits)
    ready_states = 0
    for seed in range(6):
        rng = random.Random(seed)
        circuit = baseline.random_circuit(qubits, 4, seed)
        placement = initial_placement(circuit, graph)
        chains, locks = placement.chains, placement.locks
        for _ in range(80):
            gates = circuit.first_layer
            if not gates:
                break
            key, packed = kernel.state_key(layout, chains, locks), kernel.positions(chains)
            ready = kernel.ready_gates(enc, chains, gates)
            ready_states += bool(ready)
            for greedy in (False, True):
                h = baseline._estimate(tables, gates, greedy, layout)(key, packed)
                assert h == reference_heuristic(graph, gates, chains, greedy)
                assert (h == 1) == bool(ready)
            if ready and rng.random() < 0.5:
                circuit = circuit.mark_executed(min(ready))
                continue
            moves = successor_states(enc, chains, locks)
            if not moves:
                break
            _, chains, locks = rng.choice(moves)
    assert ready_states > 0


def test_huge_capacity_compiles_like_capacity_equal_to_qubit_count():
    """A chain never holds more than every qubit, so capacity past that changes nothing.

    The search's key fields are sized by the smaller of the two; sized by
    a capacity of a million, one search would never finish.
    """
    circuit = baseline.random_circuit(3, 6, 0)
    huge = baseline.compile(circuit, trap.build_linear(2, capacity=10**6))
    assert huge.ops == baseline.compile(circuit, trap.build_linear(2, capacity=3)).ops


def test_search_tables_hold_only_the_chain_codes_met(monkeypatch):
    """Sixteen qubits at capacity 16 give 17 ** 16 chain codes; the search reads a few.

    Its per-chain tables fill on a miss, so a search capped at 50
    expansions stays within a small tracemalloc bound; a table sized by
    every code could not even be allocated.
    """
    graph = trap.build_linear(8, capacity=16)
    placement = initial_placement(baseline.random_circuit(16, 6, 0), graph)
    circuit = Circuit(16, (Gate(1, (0, 15), "cx"),))
    tables = baseline._search_tables(graph)
    monkeypatch.setattr(baseline, "_SEARCH_CAP", 50)
    tracemalloc.start()
    try:
        with pytest.raises(CompileError, match="gave up on gate 1 after 50 search expansions"):
            baseline._search_next(
                graph.encoded, tables, circuit, placement.chains, placement.locks
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- gate choice, batches and the route memo ----------------------------------


BATCH_CELLS = [
    (trap.build_linear(2), 2),
    (trap.build_linear(3), 3),
    (trap.build_linear(4), 4),
    (trap.build_eval_layout("ring", 4), 4),
    (trap.build_eval_layout("multi_linear", 4), 4),
    (trap.build_branched(3, 2, 1), 4),
    (trap.build_linear(5), 5),
]
BATCH_CELL_IDS = [
    "linear2", "linear3", "linear4", "ring4", "multi_linear4", "branched321", "linear5"
]


class SearchWork:
    """Routing searches run and expansions they spent, counted at kernel.route_search."""

    searches = 0
    expansions = 0


def counting_searches(monkeypatch) -> SearchWork:
    work = SearchWork()
    route_search = kernel.route_search

    def counted(*args, **kwargs):
        result = route_search(*args, **kwargs)
        work.searches += 1
        work.expansions += result[2]
        return result

    monkeypatch.setattr(kernel, "route_search", counted)
    return work


def compile_each(circuits, graph):
    """Each circuit's op list from its own compile, or its CompileError message."""
    outcomes = []
    for circuit in circuits:
        try:
            outcomes.append(baseline.compile(circuit, graph).ops)
        except CompileError as exc:
            outcomes.append(str(exc))
    return outcomes


@pytest.mark.parametrize("graph,qubits", BATCH_CELLS, ids=BATCH_CELL_IDS)
def test_batch_compiles_like_single_compiles(graph, qubits, monkeypatch):
    """compile_many gives each circuit its own compile's ops, with fewer searches."""
    work = counting_searches(monkeypatch)
    circuits = [baseline.random_circuit(qubits, 6, seed) for seed in range(40)]
    singles = compile_each(circuits, graph)
    single_searches, work.searches = work.searches, 0
    batch = baseline.compile_many(circuits, graph)
    assert [schedule.ops for schedule in batch] == singles
    assert work.searches < single_searches


# Every built-in trap family has one gate vertex, so one gate at most is ready
# at a time. Here three are in a row and several gates can be ready at once:
#   0 - [1] - [2] - [3] - 4
THREE_GATES = trap.TrapGraph(
    {
        v: trap.Vertex(v, trap.VertexKind.GATE, frozenset(trap.ELIGIBILITY_FLAGS), (v - 1, v + 1))
        if v in (1, 2, 3)
        else trap.Vertex(v, trap.VertexKind.STORAGE)
        for v in range(5)
    },
    frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}),
)


@pytest.mark.parametrize(
    "graph,qubits", BATCH_CELLS + [(THREE_GATES, 4)], ids=BATCH_CELL_IDS + ["three_gates"]
)
def test_router_executes_the_lowest_ready_first_layer_gate(graph, qubits):
    """Each slice executes min(ready_gates) of its first layer, in the state before it.

    The rule the router follows, with or without a search.
    """
    enc = graph.encoded
    slices = 0
    for seed in range(10):
        circuit = baseline.random_circuit(qubits, 6, seed)
        try:
            schedule = baseline.compile(circuit, graph)
        except CompileError:
            continue
        for piece in decompose(schedule):
            state = piece.state
            for op in piece.ops[:-1]:
                state = ops.apply(state, graph, piece.circuit, op)
            ready = kernel.ready_gates(enc, state.chains, piece.circuit.first_layer)
            assert piece.ops[-1] == ops.ExecuteGate(min(ready)), (seed, piece.ops[-1].a)
            slices += 1
    assert slices > 0


def test_batch_raises_the_first_failing_circuits_error():
    """On linear(1) the q2 circuits compile and the q3 circuits exhaust the search.

    The batch yields the schedules before the first failing circuit, and
    raises its error when iteration reaches it.
    """
    graph = trap.build_linear(1)
    circuits = [
        baseline.random_circuit(qubits, 6, seed) for seed in range(3) for qubits in (2, 3)
    ]
    singles = compile_each(circuits, graph)
    errors = [outcome for outcome in singles if isinstance(outcome, str)]
    compiled = [c for c, outcome in zip(circuits, singles) if not isinstance(outcome, str)]
    assert len(errors) == 3 and len(compiled) == 3
    batch = baseline.compile_many(circuits, graph)
    assert next(batch).ops == singles[0]
    with pytest.raises(CompileError) as failure:
        next(batch)
    assert str(failure.value) == errors[0] == singles[1]
    batch = baseline.compile_many(compiled, graph)
    assert [schedule.ops for schedule in batch] == [o for o in singles if not isinstance(o, str)]


def relabelled(state, circuit, perm, rng):
    """State and circuit with qubit q renamed perm[q]; two-qubit operands may swap order."""
    chains = tuple(tuple(perm[q] for q in chain) for chain in state.chains)
    gates = []
    for gate in circuit.gates:
        qs = tuple(perm[q] for q in gate.qubits)
        gates.append(Gate(gate.id, qs[::-1] if rng.random() < 0.5 else qs, gate.name))
    image = Circuit(circuit.qubit_count, tuple(gates))
    for gate_id in sorted(circuit.executed):
        image = image.mark_executed(gate_id)
    return TrapState(chains, state.locks), image


@pytest.mark.parametrize(
    "graph,qubits,seeds",
    [(trap.build_eval_layout("ring", 4), 4, range(12)), (trap.build_linear(5), 5, range(4))],
    ids=["ring4", "linear5"],
)
def test_search_is_invariant_under_qubit_relabelling(graph, qubits, seeds):
    """The property the route memo's key relies on.

    From each slice start of a compiled schedule, the search emits the same
    ops as from the start's image under a random qubit permutation, the
    circuit permuted the same way and some pairs' operands swapped. The
    ring cell takes more circuits: fewer of its slices start with a pair's
    operands in chains of unequal length, where an asymmetric estimate
    would show.
    """
    tables = baseline._search_tables(graph)
    searched = 0
    for seed in seeds:
        rng = random.Random(seed)
        schedule = baseline.compile(baseline.random_circuit(qubits, 6, seed), graph)
        for piece in decompose(schedule):
            perm = rng.sample(range(qubits), qubits)
            routes = []
            for state, circuit in (
                (piece.state, piece.circuit),
                relabelled(piece.state, piece.circuit, perm, rng),
            ):
                routes.append(
                    baseline._search_next(
                        graph.encoded, tables, circuit, state.chains, state.locks
                    )
                )
            assert routes[0] == routes[1]
            searched += bool(routes[0])
    assert searched > 10


def test_no_route_memo_outlives_a_compile(monkeypatch):
    """A second compile of the same circuit on the same graph searches as much."""
    work = counting_searches(monkeypatch)
    graph = trap.build_eval_layout("ring", 4)
    circuit = baseline.random_circuit(4, 6, 0)
    counts = []
    for _ in range(2):
        work.searches = 0
        baseline.compile(circuit, graph)
        counts.append(work.searches)
    assert counts[0] == counts[1] > 0


# -- the fused search against a best-first loop over kernel successor states ---


def reference_search(enc, tables, circuit, chains, locks):
    """`baseline._search_next` as a tuple-keyed best-first loop over successor_states.

    The same heap key, successor order, dedup rule, estimate, seal penalty,
    goal test, cap and messages, with each stored state keyed by its
    (chains, locks) tuple pair. The estimate reads each state through its
    kernel.state_key and kernel.positions, which this loop computes afresh.
    """
    gates = circuit.first_layer
    gate = gates[0]
    greedy = enc[0] > baseline.ORACLE_MAX_VERTICES
    weight = 2 if greedy else 1
    layout = kernel.key_layout(enc, circuit.qubit_count)
    estimate = baseline._estimate(tables, gates, greedy, layout)

    def heuristic(chains, locks):
        return estimate(kernel.state_key(layout, chains, locks), kernel.positions(chains))

    start = (chains, locks)
    best = {start: (0, None, None)}
    heap = [(weight * heuristic(chains, locks), 0, 0, start)]
    counter = expansions = 0
    while heap:
        f, g, _, node = heapq.heappop(heap)
        if g > best[node][0]:
            continue
        occupied = kernel.positions(node[0]) & ((1 << enc[0]) - 1)
        if f - g == weight and not occupied & tables.junction_mask:
            codes = []
            while best[node][1] is not None:
                codes.append(best[node][2])
                node = best[node][1]
            return tuple(reversed(codes))
        if expansions >= baseline._SEARCH_CAP:
            raise CompileError(
                f"the router gave up on gate {gate.id} after {expansions} search "
                f"expansions (limit {baseline._SEARCH_CAP}) and {len(best)} stored states "
                "without executing any first-layer gate; this does not prove that the "
                "circuit has no schedule"
            )
        expansions += 1
        for code, chains, locks in successor_states(enc, *node):
            kind, v, dst = code
            ng = g + 1
            exits = tables.seal_exits[v] if kind == kernel.TRANSLATE else None
            if exits is not None and not occupied & exits[dst]:
                ng += 30
            seen = best.get((chains, locks))
            if seen is not None and seen[0] <= ng:
                continue
            best[chains, locks] = (ng, node, code)
            counter += 1
            h = heuristic(chains, locks)
            heapq.heappush(heap, (ng + weight * h, ng, counter, (chains, locks)))
    raise CompileError(
        f"no op sequence from the router's current state executes gate {gate.id} or "
        f"any other first-layer gate with every junction empty: all {len(best)} "
        "states reachable from it were searched; the router boxed itself in, which "
        "does not prove that the circuit has no schedule"
    )


def search_outcome(search, *args):
    try:
        return search(*args)
    except CompileError as exc:
        return str(exc)


# The kernel walk traps, a capacity-3 trap whose three-ion chains split
# unevenly, and a linear trap whose ten qubits widen every key field.
SEARCH_TRAPS = WALK_TRAPS + [
    (trap.build_linear(2, capacity=3), 4),
    (trap.build_linear(5), 10),
]


SEARCH_IDS = ["linear1", "linear2", "linear4", "branched111", "branched622",
              "ring4", "ring6", "multi_linear4", "multi_linear6", "four_way8",
              "junction_lateral", "linear2_cap3", "linear5_q10"]


@pytest.mark.parametrize("graph,qubits", SEARCH_TRAPS, ids=SEARCH_IDS)
def test_route_search_matches_the_successor_loop(graph, qubits, monkeypatch):
    """kernel.route_search finds what the tuple-keyed reference loop finds.

    From seeded walk states: the same op codes, or the same CompileError
    text. Under a low cap the messages' expansion and stored-state counts
    must agree too, which checks the deduplication state by state.
    """
    enc = graph.encoded
    tables = baseline._search_tables(graph)
    outcomes = set()
    for seed in range(12):
        rng = random.Random(seed)
        circuit = baseline.random_circuit(qubits, 4, seed)
        placement = initial_placement(circuit, graph)
        chains, locks = placement.chains, placement.locks
        for step in range(60):
            gates = circuit.first_layer
            if not gates:
                break
            if step % 2 == 0:
                start = (enc, tables, circuit, chains, locks)
                for cap in (baseline._SEARCH_CAP, 7):
                    monkeypatch.setattr(baseline, "_SEARCH_CAP", cap)
                    found = search_outcome(baseline._search_next, *start)
                    assert found == search_outcome(reference_search, *start)
                    outcomes.add(type(found))
            ready = kernel.ready_gates(enc, chains, gates)
            if ready and rng.random() < 0.5:
                circuit = circuit.mark_executed(min(ready))
                continue
            moves = successor_states(enc, chains, locks)
            if not moves:
                break
            _, chains, locks = rng.choice(moves)
    assert tuple in outcomes


def decoded(layout, key):
    """The (chains, locks) a route_search key holds, read field by field."""
    chains, locks = [], []
    for shift, lock_shift in zip(layout.shift, layout.lock_shift):
        code, chain = key >> shift & layout.field, []
        while code:
            code, digit = divmod(code, layout.base)
            chain.insert(0, digit - 1)
        chains.append(tuple(chain))
        locks.append((key >> lock_shift & layout.lock_field) - 1)
    return tuple(chains), tuple(locks)


def test_search_key_decodes_to_its_state():
    """`decoded` inverts kernel.state_key, ten-qubit chains and locks included."""
    graph = trap.build_branched(2, 1, 1, capacity=10)
    enc = graph.encoded
    layout = kernel.key_layout(enc, 10)
    chains = [()] * enc[0]
    chains[0], chains[2] = tuple(range(9, 2, -1)), (0, 2, 1)
    locks = tuple(v % 3 - 1 for v in range(enc[0]))
    assert decoded(layout, kernel.state_key(layout, chains, locks)) == (tuple(chains), locks)


@pytest.mark.parametrize("graph,qubits", SEARCH_TRAPS, ids=SEARCH_IDS)
def test_search_carries_the_positions_of_every_state_it_estimates(graph, qubits, monkeypatch):
    """The packed positions route_search hands the estimate are those of its key.

    The search derives each child's key and positions from its parent's by
    the op it applies, never from a chains tuple; a wrapped estimate
    decodes each key and recounts the positions of its chains with
    kernel.positions on every call, from seeded walk states under a low
    cap.
    """
    estimate = baseline._estimate
    calls = []

    def checked(tables, gates, greedy, layout):
        h = estimate(tables, gates, greedy, layout)

        def wrapped(key, packed):
            chains, _ = decoded(layout, key)
            assert packed == kernel.positions(chains), chains
            calls.append(packed)
            return h(key, packed)

        return wrapped

    monkeypatch.setattr(baseline, "_estimate", checked)
    monkeypatch.setattr(baseline, "_SEARCH_CAP", 400)
    enc = graph.encoded
    tables = baseline._search_tables(graph)
    for seed in range(6):
        rng = random.Random(seed)
        circuit = baseline.random_circuit(qubits, 4, seed)
        placement = initial_placement(circuit, graph)
        chains, locks = placement.chains, placement.locks
        for _ in range(30):
            gates = circuit.first_layer
            if not gates:
                break
            search_outcome(baseline._search_next, enc, tables, circuit, chains, locks)
            ready = kernel.ready_gates(enc, chains, gates)
            if ready and rng.random() < 0.5:
                circuit = circuit.mark_executed(min(ready))
                continue
            moves = successor_states(enc, chains, locks)
            if not moves:
                break
            _, chains, locks = rng.choice(moves)
    assert calls


# -- the next-gate oracle -------------------------------------------------------

ORACLE_TRAPS = [
    (graph, qubits)
    for graph, qubits in WALK_TRAPS
    if len(graph.vertices) <= baseline.ORACLE_MAX_VERTICES and qubits <= baseline.ORACLE_MAX_QUBITS
]

# sha256 over every oracle answer of test_oracle_answers_match_the_pinned_digest.
ORACLE_SHA256 = "652c96943222d282768379305cfe72af7bb2068a2137bd747cb7f6caff53f5d3"


def oracle_answer(state, graph, circuit):
    """The oracle's route as op lines, or its NoRouteError text."""
    try:
        route = baseline.bfs_next_gate(state, graph, circuit)
    except NoRouteError as exc:
        return f"NoRouteError: {exc}"
    return "; ".join(format_op(op) for op in route)


def test_oracle_answers_match_the_pinned_digest():
    """bfs_next_gate gives the pinned route, or NoRouteError, on every walk state.

    The states are seeded random walks over kernel successors, which
    execute a ready gate half the time, on the oracle-sized walk traps.
    The pin was computed with a breadth-first search over kernel.successors,
    so it holds the oracle to provably shortest routes, ties broken by the
    first goal that search generates.
    """
    digest = hashlib.sha256()
    answers = refused = 0
    for graph, qubits in ORACLE_TRAPS:
        enc = graph.encoded
        for seed in range(12):
            rng = random.Random(seed)
            circuit = baseline.random_circuit(qubits, 4, seed)
            placement = initial_placement(circuit, graph)
            chains, locks = placement.chains, placement.locks
            for _ in range(40):
                gates = circuit.first_layer
                if not gates:
                    break
                answer = oracle_answer(TrapState(chains, locks), graph, circuit)
                digest.update(answer.encode() + b"\n")
                answers += 1
                refused += answer.startswith("NoRouteError")
                ready = kernel.ready_gates(enc, chains, gates)
                if ready and rng.random() < 0.5:
                    circuit = circuit.mark_executed(min(ready))
                    continue
                moves = successor_states(enc, chains, locks)
                if not moves:
                    break
                _, chains, locks = rng.choice(moves)
    assert 0 < refused < answers
    assert digest.hexdigest() == ORACLE_SHA256


def test_oracle_and_compile_calls_on_one_graph_share_its_search_tables(monkeypatch):
    """A trap graph object's hop distances are searched once, on its first search.

    Two oracle calls and a compile on one graph run one breadth-first
    search per vertex between them; an equal graph object builds its own.
    """
    calls = []
    distances = baseline.bfs_distances
    monkeypatch.setattr(
        baseline, "bfs_distances", lambda *args: calls.append(args) or distances(*args)
    )
    circuit = baseline.random_circuit(3, 4, 0)
    graphs = (trap.build_linear(2), trap.build_linear(2))
    n = len(graphs[0].vertices)
    for graph in graphs:
        placement = initial_placement(circuit, graph)
        first = baseline.bfs_next_gate(placement, graph, circuit)
        assert baseline.bfs_next_gate(placement, graph, circuit) == first
        baseline.compile(circuit, graph)
    assert [(args[0], args[1]) for args in calls] == [
        (graph, v) for graph in graphs for v in range(n)
    ]
    assert all(args[0] is graphs[i // n] for i, args in enumerate(calls))
