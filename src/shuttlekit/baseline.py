"""Heuristic schedule compiler and the exhaustive shortest-route oracle.

The compiler executes one first-layer gate at a time: the lowest-numbered
ready one, whose operands alone fill a gate vertex. When no first-layer
gate is ready, one weighted best-first search over the kernel encoding
(kernel.route_search) finds a short op sequence from the current state to
a state where one is and no chain rests on a junction, and the router
commits it and executes the lowest-numbered ready gate there. The search
keeps each state as its exact integer key and its packed positions, and
returns the op codes it applied; this module supplies its estimate, which
reads those two ints, its seal-penalty table, its goal mask and cap, and
words its failures.
Before that search a reachability check (kernel.reachable_gates) stops the
compile at once when junction locks have sealed every first-layer gate's
operands apart. Each failure names the lowest-numbered first-layer gate.

The router is two functions over the kernel encoding: `_route` walks one
circuit gate by gate with its state and circuit as locals, and
`_search_next` runs one search from a given state. `_route` commits a
shuttling op with one kernel.transition call on that op's code, so the
kernel checks every op against the real state, and it returns the op
codes as committed. Replay's optimizer keeps them all: a route never
revisits a state, so none of its ops undoes an earlier one, and no
cancellation crosses an Execute Gate. Each compile decodes them once, and
one schedule.replay validates the schedule and cuts the slices it holds,
which schedule.decompose hands out: a compile yields it only when replay
accepts it.

`compile_many` compiles a batch of circuits on one trap and `compile` is a
batch of one. Every search on one trap graph object reads its search
tables, built on first use and kept in the graph's instance dict as the
dataset render memo is. The compiles of a batch share a route memo, which
maps a search's start to the op codes it found. The
key renumbers qubits by order of appearance in vertex order, so a start that
differs from an earlier one only in qubit labels reuses its slice. That is
sound because the search sees labels only through which vertex holds an
operand and how long that chain is: its estimate is symmetric in a pair's
two operands, and its successors, hence its heap order, follow vertex
order. The memo holds successful searches only and lives for one call.

A compile fails in one of two ways past placement, both reported as
CompileError and neither a proof that the circuit has no schedule: the
router is stuck, because locks seal it in or the search exhausts every
state reachable from where it stands, or the search spends its cap of
`_SEARCH_CAP` expansions first. The oracle runs the same
kernel.route_search at uniform cost, feasible only on small instances, for
a provably shortest op sequence to the next gate execution.
Its independence from the router rests on tests: a digest of its answers
pinned from a breadth-first search, and route_search held equal to a
best-first loop over kernel.successors and kernel.transition.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from . import kernel
from . import ops as op_mod
from .circuit import MAX_QUBITS, Circuit, Gate
from .errors import CircuitError, CompileError, NoRouteError, OracleLimitError, PlacementError
from .errors import ScheduleValidationError
from .kernel import EXECUTE
from .ops import ShuttleOp
from .schedule import Schedule, decompose
from .state import TrapState, initial_placement
from .trap import TrapGraph, bfs_distances

ORACLE_MAX_VERTICES = 9
ORACLE_MAX_QUBITS = 4

# Expansions one routing search may spend before the compile gives up.
_SEARCH_CAP = 250_000

# Extra cost of a Translate that leaves a junction with nothing behind it:
# that locks the region away for good (re-entry from the exit side is
# forbidden and no chain remains to tap it open). Permitted, since the last
# chain out of a stack always does this, but expensive enough to prefer any
# detour.
_SEAL_PENALTY = 30

_TWO_QUBIT_NAMES = ("cx", "cz")
_ONE_QUBIT_NAMES = ("h", "x", "y", "z", "s", "t")


class _SearchTables(NamedTuple):
    """Per-trap tables behind the search estimate and the seal penalty.

    `n` is the vertex count and `far` stands in for an unreachable hop
    distance. `paths` holds, per gate vertex, a pair of n x n tables for
    operands at (va, vb), vb == va for one chain: distance[va][vb] is
    t[va] + t[vb], or t[va] when va == vb, where t[v] is the hop distance
    from v to that gate vertex; corridor[va][vb] is the bitmask of the
    vertices other than va and vb that lie on some shortest path from va
    or vb to it. seal_exits[j], for a junction j (None elsewhere), maps
    each neighbor dst to the bitmask of vertices that must all be empty for
    the Translate j -> dst to leave nothing on any other side of j.
    junction_mask is the bitmask of junction vertices.
    """

    n: int
    far: int
    paths: list[tuple[list[list[int]], list[list[int]]]]
    seal_exits: list[dict[int, int] | None]
    junction_mask: int


def _search_tables(graph: TrapGraph) -> _SearchTables:
    """The search tables of `graph`, built on first use and kept in its instance dict.

    They live and are freed with the graph object, and leave its eq, hash
    and repr alone, so every compile and oracle call on it shares one build.
    """
    tables = graph.__dict__.get("_search_tables")
    if tables is not None:
        return tables
    n = len(graph.vertices)
    far = 4 * n + 8
    apd = []
    for v in range(n):
        d = bfs_distances(graph, v)
        apd.append([d.get(w, far) for w in range(n)])
    paths = []
    for g in graph.gate_vertices:
        t = apd[g]
        mask = [sum(1 << w for w in range(n) if apd[v][w] + t[w] == t[v]) for v in range(n)]
        distance = [[t[va] + (t[vb] if vb != va else 0) for vb in range(n)] for va in range(n)]
        corridor = [
            [(mask[va] | mask[vb]) & ~((1 << va) | (1 << vb)) for vb in range(n)]
            for va in range(n)
        ]
        paths.append((distance, corridor))
    seal_exits: list[dict[int, int] | None] = [None] * n
    junction_mask = 0
    for j in range(n):
        if not graph.is_junction(j):
            continue
        junction_mask |= 1 << j
        comp = [-1] * n
        mark = 0
        for root in range(n):
            if root == j or comp[root] >= 0:
                continue
            comp[root] = mark
            stack = [root]
            while stack:
                u = stack.pop()
                for w in graph.neighbors(u):
                    if w != j and comp[w] < 0:
                        comp[w] = mark
                        stack.append(w)
            mark += 1
        seal_exits[j] = {
            dst: sum(1 << w for w in range(n) if w != j and comp[w] != comp[dst])
            for dst in graph.neighbors(j)
        }
    tables = graph.__dict__["_search_tables"] = _SearchTables(
        n, far, paths, seal_exits, junction_mask
    )
    return tables


def _estimate(tables: _SearchTables, gates: tuple, greedy: bool, layout: kernel.KeyLayout):
    """The search estimate for first-layer `gates`, as h(key, packed).

    `key` is a state's kernel.route_search key, laid out by `layout`, and
    `packed` its kernel.positions: each operand's vertex is read from
    `packed` through that operand's kernel.position_shift, its low n bits
    are the occupancy mask, which the corridor masks select from, and the
    length of the chain at a vertex is read off that vertex's code in
    `key` through `layout.length`.

    For operands at va and vb (vb == va for one qubit or one shared chain)
    and `held` qubits in their chains, h is the minimum over gates and gate
    vertices of distance[va][vb] + stranger * (held - operands) + 1 +
    crowd * popcount(corridor[va][vb] & occupied): the hops to the gate
    vertex, a term per qubit sharing an operand's chain, one for the
    execute, and a term per other occupied vertex on a shortest path there.
    (stranger, crowd) is (1, 0) in exact mode and (3, 2) in greedy mode;
    exact mode skips the corridor term, which is 0 there. The result is 1
    exactly when some gate is ready: its operands alone fill a gate
    vertex's chain.
    """
    far, n, paths = tables.far, tables.n, tables.paths
    stranger, crowd = (3, 2) if greedy else (1, 0)
    vertex_field = (1 << n.bit_length()) - 1
    field, shift, length = layout.field, layout.shift, layout.length
    operands = [tuple(kernel.position_shift(n, q) for q in gate.qubits) for gate in gates]

    def estimate(key: int, packed: int) -> int:
        best = far
        for shifts in operands:
            va = packed >> shifts[0] & vertex_field
            vb = packed >> shifts[-1] & vertex_field
            held = length[key >> shift[va] & field]
            if va != vb:
                held += length[key >> shift[vb] & field]
            base = stranger * (held - len(shifts)) + 1
            for distance, corridor in paths:
                cand = distance[va][vb] + base
                if crowd:
                    cand += crowd * (corridor[va][vb] & packed).bit_count()
                if cand < best:
                    best = cand
        return best

    return estimate


def _route_key(chains: tuple, locks: tuple, gates: tuple) -> tuple:
    """The route memo's key for a search from (chains, locks) to `gates`.

    Qubits are renumbered by order of appearance in vertex order, and the
    first layer enters as its sorted, renumbered operand sets: gate ids
    and operand order do not reach the search.
    """
    relabel: dict[int, int] = {}
    for chain in chains:
        for q in chain:
            relabel[q] = len(relabel)
    return (
        tuple(tuple(relabel[q] for q in chain) for chain in chains),
        locks,
        tuple(sorted(tuple(sorted(relabel[q] for q in gate.qubits)) for gate in gates)),
    )


def _search_next(
    trap: tuple, tables: _SearchTables, circuit: Circuit, chains: tuple, locks: tuple
) -> tuple[tuple[int, int, int], ...]:
    """Weighted best-first search to the nearest first-layer execution.

    Runs kernel.route_search from (chains, locks) and returns the codes of
    the shuttling ops to the first goal it pops; the caller takes them and
    the execute. The trap's size picks one row of weights for the one
    `_estimate` formula: on oracle-sized traps the search weight is 1 and
    the estimate, with no corridor term, stays a near lower bound, so
    slices stay near shortest; bigger traps take search weight 2 and
    heavier stranger and corridor terms that keep the frontier narrow. A
    goal has a ready gate and no chain on a junction: a slice may route
    through junctions but must not end on one, since a chain resting there
    when the gate fires can lock half the trap away for every later gate.
    The estimate and the seal penalty read the trap's `_SearchTables`.

    Raises CompileError, naming the lowest-numbered first-layer gate,
    when the frontier runs out, so that no op sequence from the current
    state reaches a goal, or when `_SEARCH_CAP` expansions are spent.
    """
    gates = circuit.first_layer
    greedy = tables.n > ORACLE_MAX_VERTICES
    layout = kernel.key_layout(trap, circuit.qubit_count)
    codes, spent, expansions, stored = kernel.route_search(
        trap,
        chains,
        locks,
        layout,
        estimate=_estimate(tables, gates, greedy, layout),
        weight=2 if greedy else 1,
        seal_exits=tables.seal_exits,
        seal_penalty=_SEAL_PENALTY,
        goal_mask=tables.junction_mask,
        max_expansions=_SEARCH_CAP,
    )
    if codes is not None:
        return codes
    if spent:
        raise CompileError(
            f"the router gave up on gate {gates[0].id} after {expansions} search "
            f"expansions (limit {_SEARCH_CAP}) and {stored} stored states without "
            "executing any first-layer gate; this does not prove that the circuit "
            "has no schedule"
        )
    raise CompileError(
        f"no op sequence from the router's current state executes gate {gates[0].id} or "
        f"any other first-layer gate with every junction empty: all {stored} "
        "states reachable from it were searched; the router boxed itself in, which "
        "does not prove that the circuit has no schedule"
    )


def _route(
    trap: tuple,
    tables: _SearchTables,
    routes: dict[tuple, tuple[tuple[int, int, int], ...]],
    circuit: Circuit,
    chains: tuple,
    locks: tuple,
) -> list[tuple[int, int, int]]:
    """The op codes that execute `circuit` from (chains, locks), gate by gate.

    Executes the lowest ready first-layer gate, searching for a route when
    none is ready. `routes` is the route memo: `_route_key` of a search's
    start -> the op codes of the slice it found, without the final execute.
    """
    codes: list[tuple[int, int, int]] = []
    while not circuit.is_complete:
        first_layer = circuit.first_layer
        ready = kernel.ready_gates(trap, chains, first_layer)
        if not ready:
            gate = first_layer[0]
            key = _route_key(chains, locks, first_layer)
            route = routes.get(key)
            if route is None:
                if not kernel.reachable_gates(trap, chains, locks, first_layer):
                    # The search could only exhaust its frontier or its cap from here.
                    raise CompileError(
                        f"junction locks seal gate {gate.id}'s operands, and those of every "
                        "other first-layer gate, away from any gate vertex where they could "
                        "meet; the router boxed itself in, which does not prove that the "
                        "circuit has no schedule"
                    )
                route = _search_next(trap, tables, circuit, chains, locks)
                routes[key] = route
            # The kernel checks each op against the real state, memo hit or not.
            for code in route:
                after = kernel.transition(trap, chains, locks, code)
                if after is None:
                    raise CompileError(
                        f"the route to gate {gate.id} takes "
                        f"{op_mod.format_op(code)}, which is illegal in "
                        "the router's current state; this is a router defect, which does "
                        "not prove that the circuit has no schedule"
                    )
                chains, locks = after
            codes.extend(route)
            ready = kernel.ready_gates(trap, chains, first_layer)
        gate_id = min(ready)
        circuit = circuit.mark_executed(gate_id)
        codes.append((EXECUTE, gate_id, -1))
    return codes


def compile(circuit: Circuit, graph: TrapGraph) -> Schedule:
    """Compile a circuit into a valid schedule on the given trap.

    The same as `next(compile_many([circuit], graph))`, CompileError
    included. A routing search whose start repeats an earlier one of this
    compile up to qubit labels reuses its slice, which is the slice a fresh
    search would find: the search is blind to labels (see `compile_many`).
    The route memo lives for this one call, so two compiles on one graph
    search alike.
    """
    return next(compile_many([circuit], graph))


def compile_many(circuits: Iterable[Circuit], graph: TrapGraph) -> Iterator[Schedule]:
    """Compile circuits on one trap into valid schedules, yielded in order.

    The lowest-numbered ready first-layer gate executes; when none is
    ready, one weighted best-first search finds a short slice to the next
    first-layer execution. Deterministic: the search orders its frontier
    by cost, then by insertion.

    The compiles share a route memo, and with every other search on the
    graph object, its search tables (see `_search_tables`). A search
    whose start state and first-layer operand sets equal an earlier
    successful one's up to a renumbering of qubits reuses that slice: each
    of its ops is committed through kernel.transition on the real state,
    and the lowest ready gate id of the real first layer executes. An op
    that transition rejects raises CompileError naming a router defect.
    The schedule holds the router's op codes, decoded once, which replay's
    optimizer keeps whole, since a route never revisits a state and no
    cancellation crosses an Execute Gate; the one replay that validates it
    cuts the slices it holds (see schedule.decompose). A schedule replay
    rejects raises CompileError naming a router defect and replay's reason.
    The slice is the one a fresh search would find, because the search
    reads qubit labels only through operand positions and chain lengths,
    its estimate is symmetric in a pair's two operands, and its heap order
    comes from vertex-ordered successors. So each schedule equals the one
    `compile` gives for its circuit alone. The memo lives for this call
    only: it is never module-global nor kept on the graph, so separate
    calls never share entries.

    Lazy: CompileError is raised when iteration reaches the first circuit
    that fails: its initial placement does not fit, or the router is stuck
    at some gate: junction locks seal every first-layer gate's operands
    apart (found before searching), or the search exhausts every state
    reachable from the router's current state without a gate execution,
    or it spends its cap first. None of these proves that the circuit has
    no schedule on the trap: a stuck state is one the router's own earlier
    choices led to, and a spent cap proves nothing.
    """
    tables, routes = _search_tables(graph), {}
    for circuit in circuits:
        try:
            placement = initial_placement(circuit, graph)
        except PlacementError as exc:
            raise CompileError(str(exc)) from exc
        codes = _route(graph.encoded, tables, routes, circuit, placement.chains, placement.locks)
        schedule = Schedule(graph, circuit, placement, tuple(map(op_mod.decode_op, codes)))
        try:
            decompose(schedule)
        except ScheduleValidationError as exc:
            raise CompileError(
                f"replay rejects the router's schedule: {exc}; this is a router "
                "defect, which does not prove that the circuit has no schedule"
            ) from exc
        yield schedule


def bfs_next_gate(
    state: TrapState, graph: TrapGraph, circuit: Circuit
) -> tuple[ShuttleOp, ...]:
    """Provably shortest op sequence ending in some first-layer gate execution.

    kernel.route_search at uniform cost, with estimate 1 where a gate is
    ready and 2 elsewhere: consistent, so the first goal popped is the first
    one breadth-first search over kernel.successors generates. The estimate
    is the exact-mode `_estimate` capped at 2, which reads a state's key and
    positions and is 1 exactly when some gate is ready. Exhaustive,
    so the instance must be small; the guards are hard limits, not tuning
    knobs. NoRouteError when no gate can execute.
    """
    if len(graph.vertices) > ORACLE_MAX_VERTICES:
        raise OracleLimitError(
            f"{len(graph.vertices)} vertices exceed the oracle limit of {ORACLE_MAX_VERTICES}"
        )
    if circuit.qubit_count > ORACLE_MAX_QUBITS:
        raise OracleLimitError(
            f"{circuit.qubit_count} qubits exceed the oracle limit of {ORACLE_MAX_QUBITS}"
        )
    gates = circuit.first_layer
    if not gates:
        return ()
    trap, chains, locks = graph.encoded, state.chains, state.locks
    layout = kernel.key_layout(trap, circuit.qubit_count)
    exact = _estimate(_search_tables(graph), gates, False, layout)

    def estimate(key: int, packed: int) -> int:
        return min(exact(key, packed), 2)

    codes = None
    if kernel.reachable_gates(trap, chains, locks, gates):
        codes = kernel.route_search(
            trap,
            chains,
            locks,
            layout,
            estimate=estimate,
            weight=1,
            seal_exits=[None] * len(graph.vertices),
            seal_penalty=0,
            goal_mask=0,
            max_expansions=math.inf,
        )[0]
    if codes is None:
        raise NoRouteError("no operation sequence reaches a gate execution")
    for code in codes:
        chains, locks = kernel.transition(trap, chains, locks, code)
    execute = (EXECUTE, min(kernel.ready_gates(trap, chains, gates)), -1)
    return tuple(op_mod.decode_op(code) for code in (*codes, execute))


def random_circuit(qubits: int, depth: int, seed: int) -> Circuit:
    """Seeded random circuit of `depth` layers of 1- and 2-qubit gates.

    Each layer shuffles the qubits and pairs neighbors in the shuffled
    order with probability one half, so a layer touches each qubit at most
    once and the gate count is at most qubits * depth.
    """
    if qubits < 1:
        raise ValueError("qubits must be at least 1")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if qubits > MAX_QUBITS:
        raise CircuitError(f"{qubits} qubits exceed the limit of {MAX_QUBITS}")
    rng = random.Random(seed)
    gates: list[Gate] = []
    for _ in range(depth):
        order = list(range(qubits))
        rng.shuffle(order)
        i = 0
        while i < len(order):
            if i + 1 < len(order) and rng.random() < 0.5:
                name = rng.choice(_TWO_QUBIT_NAMES)
                gates.append(Gate(len(gates) + 1, (order[i], order[i + 1]), name))
                i += 2
            else:
                name = rng.choice(_ONE_QUBIT_NAMES)
                gates.append(Gate(len(gates) + 1, (order[i],), name))
                i += 1
    return Circuit(qubits, tuple(gates))
