"""Heuristic schedule compiler and the exhaustive shortest-route oracle.

The router executes the lowest-numbered ready first-layer gate (see
kernel.ready_gates). When none is ready, one kernel.route_search finds ops
to a state where one is and no chain rests on a junction; this module
supplies its estimate, seal penalty, goal mask and cap, and words its
failures. `_route` commits each op through kernel.transition, so the
kernel checks every op against the real state. A route never revisits a
state, so the router's codes are exactly schedule.replay's kept ops.

Route memo. The compiles of one `compile_many` call share a map from a
search's start, keyed by `_route_key`, to the op codes it found; the
lowest ready gate of the real first layer then executes. A hit is the
slice a fresh search would find, because the search is blind to qubit
labels: it reads a qubit only through which vertex holds it and how long
that chain is, its estimate is symmetric in a pair's two operands, and
its successors, hence its heap order, follow vertex order. The memo holds
successful searches only and lives for one call.

Failures. Each is a CompileError, and none proves that the circuit has no
schedule. The initial placement does not fit. The router is stuck, and the
message names the lowest-numbered first-layer gate: junction locks seal
every first-layer gate's operands apart (found by kernel.reachable_gates
before searching), the search exhausts every state reachable from where
the router stands, or it spends `_SEARCH_CAP` expansions. Or the router
has a defect: an op of a route is illegal in the router's current state,
or replay rejects the router's schedule.

Tests hold the oracle, `bfs_next_gate`, independent of the router: a
digest of its answers pinned from a breadth-first search, and route_search
held equal to a best-first loop over kernel.successors and transition.
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

    `far` stands in for an unreachable hop distance. `paths` holds, per
    gate vertex, a pair of n x n tables for operands at (va, vb), vb == va
    for one chain: distance[va][vb] is t[va] + t[vb], or t[va] when va ==
    vb, where t[v] is the hop distance from v to that gate vertex;
    corridor[va][vb] is the bitmask of the vertices other than va and vb on
    some shortest path from va or vb to it. seal_exits[j], for a junction j
    (None elsewhere), maps each neighbor dst to the bitmask of vertices that
    must all be empty for the Translate j -> dst to leave nothing on any
    other side of j.
    """

    n: int
    far: int
    paths: list[tuple[list[list[int]], list[list[int]]]]
    seal_exits: list[dict[int, int] | None]
    junction_mask: int


def _search_tables(graph: TrapGraph) -> _SearchTables:
    """The search tables of `graph`, built once and kept as the dataset render memo is."""
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

    Reads the two ints of a kernel.route_search state. For operands at va
    and vb (vb == va for one qubit or one shared chain) and `held` qubits
    in their chains, h is the minimum over gates and gate vertices of
    distance[va][vb] + stranger * (held - operands) + 1 + crowd *
    popcount(corridor[va][vb] & occupied). (stranger, crowd) is (1, 0) in
    exact mode, which skips the corridor term, and (3, 2) in greedy mode.
    h is 1 exactly when some gate is ready.
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
    """Route memo key: chains, locks, sorted operand sets; qubits renumbered in vertex order."""
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
    """The shuttling op codes of one search from (chains, locks) to the nearest goal.

    Oracle-sized traps take weight 1 and the exact-mode estimate, a near
    lower bound, so slices stay near shortest; bigger traps take weight 2
    and the greedy-mode terms, which keep the frontier narrow. A goal has a
    ready gate and no chain on a junction, where one resting when the gate
    fires can lock half the trap away. Raises CompileError when the frontier
    runs out or the cap is spent.
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
    """The op codes that execute `circuit` from (chains, locks); `routes` is the route memo."""
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
    """Compile a circuit into a valid schedule: `next(compile_many([circuit], graph))`."""
    return next(compile_many([circuit], graph))


def compile_many(circuits: Iterable[Circuit], graph: TrapGraph) -> Iterator[Schedule]:
    """Compile circuits on one trap into valid schedules, yielded in order.

    Deterministic. The compiles share one route memo, and each schedule
    equals the one `compile` gives for its circuit alone, by the
    label-blindness argument in the module docstring. A schedule holds the
    router's op codes, decoded once, and the replay that validated them
    (see the schedule module docstring).

    Lazy: CompileError, for a reason the module docstring lists, is raised
    when iteration reaches the first circuit that fails.
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

    kernel.route_search at uniform cost with the exact-mode `_estimate`
    capped at 2, which is consistent, so the first goal popped is the first
    one breadth-first search over kernel.successors generates. Exhaustive,
    so past the ORACLE_MAX_* guards, hard limits and not tuning knobs, it
    raises OracleLimitError. NoRouteError when no gate can execute.
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
