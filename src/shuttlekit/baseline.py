"""Heuristic schedule compiler and the exhaustive shortest-route oracle.

The compiler routes one first-layer gate at a time: it enumerates a small
family of delivery plans for the gate (strip order, chain orientation,
lateral assignment), simulates each plan to completion on a scratch copy
of the state, and commits the cheapest. Plans move chains hop by hop and
park whatever blocks the way. Before any search or plan, a reachability
check (kernel.reachable_gates) stops the compile at once when junction
locks have sealed every first-layer gate's operands apart: no op sequence
from that state executes a gate, so the router has boxed itself in. The
oracle is an independent check: plain breadth-first search over the
kernel encoding, feasible only on small instances, returning a provably
shortest op sequence to the next gate execution.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import NamedTuple

from . import kernel
from . import ops as op_mod
from .circuit import Circuit, Gate
from .errors import (
    CompileError,
    IllegalOperationError,
    NoRouteError,
    OracleLimitError,
    PlacementError,
)
from .kernel import MERGE, SWAP, TRANSLATE
from .ops import ExecuteGate, Merge, Separate, ShuttleOp, Swap, Translate
from .schedule import Schedule, optimize, step
from .state import TrapState, initial_placement
from .trap import TrapGraph, bfs_distances

ORACLE_MAX_VERTICES = 9
ORACLE_MAX_QUBITS = 4

# Recursion ceiling for displacement chains while parking; hitting it means
# the trap is packed too tight to shuffle, which is a compile error, not a bug.
_MAX_PARK_DEPTH = 32
_SEARCH_CAP_EXACT = 200_000
_SEARCH_CAP = 8_000
_SEARCH_CAP_RESCUE = 250_000

_TWO_QUBIT_NAMES = ("cx", "cz")
_ONE_QUBIT_NAMES = ("h", "x", "y", "z", "s", "t")


@dataclass(frozen=True)
class _PairPlan:
    """One way to choreograph a two-qubit gate delivery."""

    strip_q2_first: bool
    swap_first: bool
    swap_second: bool
    cross_with_q2: bool


class _SearchTables(NamedTuple):
    """Per-compile tables behind the search estimate and the seal penalty.

    gate_tables[k][v] is the hop distance from v to the k-th gate vertex
    and `far` stands in for an unreachable one. pair_min[va][vb] is the
    smallest t[va] + t[vb] over those tables t, or t[va] alone when
    va == vb (far when the trap has no gate vertex). corridor[k][v] is the
    bitmask of vertices w with apd[v][w] + t[w] == t[v], the vertices on
    some shortest path from v to gate vertex k, v itself included.
    seal_exits[j], for a junction j (None elsewhere), maps each neighbor
    dst to the bitmask of vertices that must all be empty for the
    Translate j -> dst to leave nothing on any other side of j.
    junction_mask is the bitmask of junction vertices.
    """

    far: int
    gate_tables: list[list[int]]
    pair_min: list[list[int]]
    corridor: list[list[int]]
    seal_exits: list[dict[int, int] | None]
    junction_mask: int


def _search_tables(graph: TrapGraph) -> _SearchTables:
    """Build the search tables of one trap, once per compile."""
    n = len(graph.vertices)
    far = 4 * n + 8
    gate_tables = []
    for g in graph.gate_vertices:
        d = bfs_distances(graph, g)
        gate_tables.append([d.get(v, far) for v in range(n)])
    apd = []
    for v in range(n):
        d = bfs_distances(graph, v)
        apd.append([d.get(w, far) for w in range(n)])
    pair_min = [
        [
            min((t[va] + (t[vb] if vb != va else 0) for t in gate_tables), default=far)
            for vb in range(n)
        ]
        for va in range(n)
    ]
    corridor = [
        [sum(1 << w for w in range(n) if apd[v][w] + t[w] == t[v]) for v in range(n)]
        for t in gate_tables
    ]
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
    return _SearchTables(far, gate_tables, pair_min, corridor, seal_exits, junction_mask)


def _positions(chains: tuple, qubit_count: int) -> tuple[list[int], int]:
    """Qubit -> vertex list and occupancy bitmask of an encoded state."""
    pos = [0] * qubit_count
    occupied = 0
    for v, chain in enumerate(chains):
        if chain:
            occupied |= 1 << v
            for q in chain:
                pos[q] = v
    return pos, occupied


def _estimate(tables: _SearchTables, gates: tuple, greedy: bool):
    """The search estimate for first-layer `gates`, as h(chains, pos, occupied).

    The minimum over gates and gate vertices of the operands' distance to
    that vertex, plus one for the execute, plus a stranger term per qubit
    sharing an operand's chain (weight 1 exact, 3 greedy). Greedy mode adds
    2 per occupied vertex, operands' own excepted, that lies on a shortest
    path from an operand to the gate vertex. The result is 1 exactly when
    some gate is ready: its operands alone fill a gate vertex's chain.
    """
    far = tables.far
    operands = [qs for _, qs in gates]
    if not greedy:
        pair_min = tables.pair_min

        def exact_estimate(chains: tuple, pos: list[int], occupied: int) -> int:
            best = far
            for qs in operands:
                va = pos[qs[0]]
                if len(qs) == 1:
                    cand = pair_min[va][va] + len(chains[va])
                else:
                    vb = pos[qs[1]]
                    if va == vb:
                        cand = pair_min[va][va] + len(chains[va]) - 1
                    else:
                        cand = pair_min[va][vb] + len(chains[va]) + len(chains[vb]) - 1
                if cand < best:
                    best = cand
            return best

        return exact_estimate
    paths = list(zip(tables.gate_tables, tables.corridor))

    def greedy_estimate(chains: tuple, pos: list[int], occupied: int) -> int:
        best = far
        for qs in operands:
            va = pos[qs[0]]
            vb = pos[qs[1]] if len(qs) > 1 else va
            if va == vb:
                base = 3 * (len(chains[va]) - len(qs)) + 1
                others = occupied & ~(1 << va)
                for t, mask in paths:
                    cand = t[va] + base + 2 * (mask[va] & others).bit_count()
                    if cand < best:
                        best = cand
            else:
                base = 3 * (len(chains[va]) + len(chains[vb]) - 2) + 1
                others = occupied & ~((1 << va) | (1 << vb))
                for t, mask in paths:
                    cand = t[va] + t[vb] + base + 2 * ((mask[va] | mask[vb]) & others).bit_count()
                    if cand < best:
                        best = cand
        return best

    return greedy_estimate


class _Router:
    """Mutable compilation cursor: current state, remaining circuit, emitted ops."""

    def __init__(self, graph: TrapGraph, circuit: Circuit, state: TrapState) -> None:
        self.graph = graph
        self.circuit = circuit
        self.state = state
        self.ops: list[ShuttleOp] = []
        self._dist: dict[int, dict[int, int]] = {}
        self._tables: _SearchTables | None = None
        self._search_cooldown = 0

    # -- bookkeeping ------------------------------------------------------

    def dist(self, source: int) -> dict[int, int]:
        if source not in self._dist:
            self._dist[source] = bfs_distances(self.graph, source)
        return self._dist[source]

    def snapshot(self) -> tuple[TrapState, Circuit, int]:
        return self.state, self.circuit, len(self.ops)

    def rollback(self, snap: tuple[TrapState, Circuit, int]) -> None:
        self.state, self.circuit, kept = snap
        del self.ops[kept:]

    def emit(self, op: ShuttleOp) -> None:
        self.state, self.circuit = step(self.graph, self.state, self.circuit, op)
        self.ops.append(op)

    def vertex_of(self, qubit: int) -> int:
        return self.state.position_of(qubit).vertex

    # -- movement primitives ----------------------------------------------

    def _find_path(
        self, src: int, dst: int, walls: frozenset[int], heed_locks: bool = True
    ) -> list[int] | None:
        """Shortest vertex path src -> dst; walls are impassable, occupancy is not."""
        if dst in walls:
            return None
        locks = self.state.junction_locks
        parents: dict[int, int | None] = {src: None}
        frontier = [src]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for w in self.graph.neighbors(u):
                    if w in parents or w in walls:
                        continue
                    if heed_locks and self.graph.is_junction(w) and locks.get(w) == u:
                        continue
                    parents[w] = u
                    if w == dst:
                        path = [dst]
                        while parents[path[-1]] is not None:
                            path.append(parents[path[-1]])
                        return list(reversed(path))
                    nxt.append(w)
            frontier = nxt
        return None

    def move_chain(
        self,
        src: int,
        dst: int,
        walls: frozenset[int] = frozenset(),
        park_avoid: frozenset[int] = frozenset(),
        depth: int = 0,
    ) -> None:
        """Walk the chain at src to dst, parking blockers off the route.

        The path is recomputed every hop because parking moves rewrite
        junction locks. Frozen chains sit on wall vertices and are never
        crossed or displaced; park_avoid vertices stay free for the caller.
        """
        if depth > _MAX_PARK_DEPTH:
            raise CompileError("chain displacement recursion exceeded its limit")
        hops = 0
        while src != dst:
            hops += 1
            if hops > 3 * len(self.graph.vertices) + 12:
                raise CompileError(f"chain from {src} cannot settle at {dst}")
            path = self._find_path(src, dst, walls)
            if path is None:
                self._clear_lock_toward(src, dst, walls, park_avoid, depth)
                continue
            step = path[1]
            if self.state.occupied(step):
                try:
                    self.park(
                        step,
                        park_avoid | set(path) | {src},
                        walls | {src},
                        depth + 1,
                    )
                except CompileError:
                    self._push(step, walls | {src}, park_avoid, depth + 1)
                continue
            self.emit(Translate(src, step))
            src = step

    def _push(
        self, vertex: int, walls: frozenset[int], avoid: frozenset[int], depth: int
    ) -> None:
        """Shift the chain at vertex one hop onward, convoy style.

        When a whole corridor is occupied nothing can park sideways, but
        the line can still compact: each chain shifts one hop once the
        chain ahead of it has shifted. Prefers empty storage, then shifts
        occupied neighbors recursively; avoid vertices come last.
        """
        if depth > _MAX_PARK_DEPTH:
            raise CompileError("chain displacement recursion exceeded its limit")
        ranked: list[tuple[int, int]] = []
        for n in self.graph.neighbors(vertex):
            if n in walls:
                continue
            if self.graph.is_junction(n) and self.state.junction_locks.get(n) == vertex:
                continue
            rank = 4 * (n in avoid) + 2 * self.graph.is_junction(n)
            rank += self.state.occupied(n)
            ranked.append((rank, n))
        last: Exception | None = None
        for _, n in sorted(ranked):
            snap = self.snapshot()
            try:
                if self.state.occupied(n):
                    self._push(n, walls | {vertex}, avoid, depth + 1)
                self.emit(Translate(vertex, n))
                return
            except (CompileError, IllegalOperationError) as exc:
                last = exc
                self.rollback(snap)
        raise last if last else CompileError(f"chain at {vertex} is boxed in")

    def park(
        self, vertex: int, avoid: frozenset[int] | set[int], walls: frozenset[int], depth: int
    ) -> None:
        """Move the chain at vertex to the nearest free spot outside avoid."""
        if depth > _MAX_PARK_DEPTH:
            raise CompileError("chain displacement recursion exceeded its limit")
        dist = self.dist(vertex)
        candidates = [
            t
            for t in self.graph.vertex_ids
            if t != vertex
            and t in dist
            and t not in avoid
            and t not in walls
            and not self.graph.is_junction(t)
            and not self.state.occupied(t)
        ]
        if not candidates:
            raise CompileError(f"no free vertex to park the chain at {vertex}")
        # Storage beats the gate segment; otherwise closest wins.
        candidates.sort(key=lambda t: (self.graph.allows(t, "gate"), dist[t], t))
        last_error: CompileError | None = None
        for target in candidates[:4]:
            snap = self.snapshot()
            try:
                self.move_chain(vertex, target, walls, frozenset(avoid), depth)
                return
            except (CompileError, IllegalOperationError) as exc:
                self.rollback(snap)
                last_error = CompileError(str(exc))
        raise last_error if last_error else CompileError(
            f"no reachable parking spot from {vertex}"
        )

    def _vacate(
        self, goal: int, avoid: frozenset[int], walls: frozenset[int]
    ) -> None:
        """Free up goal: park its chain, or compact the line one hop.

        Parking walks the occupant to an empty vertex, which fails when
        every free spot sits behind a solid corridor. A convoy push still
        works there, so fall back to it.
        """
        try:
            self.park(goal, avoid, walls, 0)
        except CompileError:
            self._push(goal, walls, avoid, 0)

    def _clear_lock_toward(
        self,
        src: int,
        dst: int,
        walls: frozenset[int],
        park_avoid: frozenset[int],
        depth: int,
    ) -> None:
        """Rewrite the junction lock that blocks every path from src to dst.

        A locked junction only forbids entry from the vertex it last exited
        toward, so traversing it from any other side changes the lock. When
        the junction is empty a nearby helper chain taps it: enters from a
        free side and bounces straight back out.
        """
        unlocked = self._find_path(src, dst, walls, heed_locks=False)
        if unlocked is None:
            raise CompileError(f"no route from {src} to {dst}")
        locks = self.state.junction_locks
        junction = entry = None
        for u, w in zip(unlocked, unlocked[1:]):
            if self.graph.is_junction(w) and locks.get(w) == u:
                junction, entry = w, u
                break
        if junction is None:
            raise CompileError(f"route from {src} to {dst} blocked without a lock")
        if self.state.occupied(junction):
            self.park(junction, park_avoid | {entry}, walls | {entry}, depth + 1)
            return
        helpers = [
            v
            for v in self.state.chains
            if v != src and v != entry and v not in walls
        ]
        helpers.sort(key=lambda v: (self.dist(junction).get(v, len(self.graph.vertices)), v))
        for helper in helpers:
            for side in self.graph.neighbors(junction):
                if side == entry or side in walls:
                    continue
                snap = self.snapshot()
                try:
                    self.move_chain(
                        helper, side, walls | {junction}, park_avoid | {junction}, depth + 1
                    )
                    self.emit(Translate(side, junction))
                    self.emit(Translate(junction, side))
                    return
                except (CompileError, IllegalOperationError):
                    self.rollback(snap)
        raise CompileError(f"no helper chain can rewrite the lock at junction {junction}")

    # -- per-gate choreography ----------------------------------------------

    def target_gate_vertex(self, gate: Gate) -> int:
        best: tuple[int, int] | None = None
        for gs in self.graph.gate_vertices:
            cost = sum(self.dist(gs)[self.vertex_of(q)] for q in gate.qubits)
            if best is None or (cost, gs) < best:
                best = (cost, gs)
        if best is None:
            raise CompileError("trap has no gate-eligible vertex")
        return best[1]

    def pick_gate(self) -> Gate:
        best: tuple[int, int] | None = None
        chosen: Gate | None = None
        for gate in sorted(self.circuit.first_layer, key=lambda g: g.id):
            cost = min(
                sum(self.dist(gs)[self.vertex_of(q)] for q in gate.qubits)
                for gs in self.graph.gate_vertices
            )
            if best is None or (cost, gate.id) < best:
                best = (cost, gate.id)
                chosen = gate
        assert chosen is not None
        return chosen

    def nearest_separator(self, vertex: int) -> int:
        dist = self.dist(vertex)
        best: tuple[int, int] | None = None
        for v in self.graph.vertex_ids:
            if not self.graph.allows(v, "separate") or v not in dist:
                continue
            pair = self.graph.lateral_pair(v)
            if pair is None or any(self.graph.is_junction(s) for s in pair):
                continue
            if best is None or (dist[v], v) < best:
                best = (dist[v], v)
        if best is None:
            raise CompileError("trap has no usable Separate vertex")
        return best[1]

    def strip(self, qubit: int, gate: Gate, swap_first: bool) -> None:
        """Separate the chain holding qubit until it carries operands only."""
        rounds = 0
        while True:
            vertex = self.vertex_of(qubit)
            chain = self.state.chain_at(vertex)
            if all(q in gate.qubits for q in chain):
                return
            rounds += 1
            if rounds > self.graph.capacity + 2:
                raise CompileError(f"cannot isolate qubit {qubit} by separation")
            sep = self.nearest_separator(vertex)
            left, right = self.graph.lateral_pair(sep)
            self.move_chain(vertex, sep, frozenset(), frozenset({left, right}))
            for side in (left, right):
                if self.state.occupied(side):
                    self.park(side, {sep, left, right}, frozenset({sep}), 0)
            if swap_first and self.graph.allows(sep, "swap"):
                self.emit(Swap(sep))
            self.emit(Separate(sep))

    def _attempt_single(self, gate: Gate, swap_first: bool) -> None:
        qubit = gate.qubits[0]
        self.strip(qubit, gate, swap_first)
        gs = self.target_gate_vertex(gate)
        self.move_chain(self.vertex_of(qubit), gs)
        self.emit(ExecuteGate(gate.id))

    def _attempt_pair(self, gate: Gate, plan: _PairPlan) -> None:
        q1, q2 = gate.qubits
        order = (q2, q1) if plan.strip_q2_first else (q1, q2)
        for qubit, swap in zip(order, (plan.swap_first, plan.swap_second)):
            self.strip(qubit, gate, swap)
        # Delivery can deadlock on path-shaped regions: Translate never
        # changes the left-to-right order of chains, so a stranger wedged
        # between the operands has to be crossed through a swap-capable
        # vertex before the laterals fill up. Each round either delivers
        # or commits one crossing that strictly shrinks the wedge.
        rounds = len(self.state.chains) + 2
        for _ in range(rounds):
            for qubit in order:
                self.strip(qubit, gate, False)
            best_ops: list[ShuttleOp] | None = None
            best_end: tuple[TrapState, Circuit] | None = None
            snap = self.snapshot()
            for q1_left, q1_first in itertools.product((False, True), repeat=2):
                try:
                    self._deliver_pair(gate, q1_left, q1_first)
                except (CompileError, IllegalOperationError):
                    self.rollback(snap)
                    continue
                cost = len(self.ops) - snap[2]
                if best_ops is None or cost < len(best_ops):
                    best_ops = self.ops[snap[2]:]
                    best_end = (self.state, self.circuit)
                self.rollback(snap)
            if best_ops is not None and best_end is not None:
                self.ops.extend(best_ops)
                self.state, self.circuit = best_end
                return
            before = self._wedged_count(gate)
            operands = (q2, q1) if plan.cross_with_q2 else (q1, q2)
            committed = False
            for operand, rank in itertools.product(operands, (0, 1)):
                cross_snap = self.snapshot()
                try:
                    self._cross_once(gate, operand, rank)
                except (CompileError, IllegalOperationError):
                    self.rollback(cross_snap)
                    continue
                if self._wedged_count(gate) < before:
                    committed = True
                    break
                self.rollback(cross_snap)
            if not committed:
                raise CompileError(f"operands of gate {gate.id} stay blocked")
        raise CompileError(f"operands of gate {gate.id} stay blocked")

    def _wedged_count(self, gate: Gate) -> int:
        """Wedge weight: stranger chains on a shortest path between operands.

        A chain of k qubits weighs 2k - 1, so splitting one into any two
        pieces lowers the total even when both pieces stay wedged. Chains
        above the exchange headroom cannot cross otherwise.
        """
        q1, q2 = gate.qubits
        d1 = self.dist(self.vertex_of(q1))
        d2 = self.dist(self.vertex_of(q2))
        span = d1.get(self.vertex_of(q2))
        if span is None:
            return 0
        count = 0
        for vertex, chain in self.state.chains.items():
            if any(q in gate.qubits for q in chain):
                continue
            if d1.get(vertex, -1) + d2.get(vertex, -1) == span:
                count += 2 * len(chain) - 1
        return count

    def _deliver_pair(self, gate: Gate, q1_left: bool, q1_first: bool) -> None:
        q1, q2 = gate.qubits
        if self.vertex_of(q1) == self.vertex_of(q2):
            # Operands already share one exact pair; just walk it in.
            gs = self.target_gate_vertex(gate)
            self.move_chain(self.vertex_of(q1), gs)
            self.emit(ExecuteGate(gate.id))
            return
        merge_at = self.nearest_merge_vertex(gate)
        left, right = self.graph.lateral_pair(merge_at)
        reserved = frozenset({merge_at, left, right})
        occupant = self.state.chain_at(merge_at)
        if occupant and not any(q in gate.qubits for q in occupant):
            self.park(merge_at, reserved, frozenset(), 0)
        targets = {q1: left if q1_left else right}
        targets[q2] = right if q1_left else left
        delivery = (q1, q2) if q1_first else (q2, q1)
        walls: frozenset[int] = frozenset()
        for qubit in delivery:
            goal = targets[qubit]
            if self.vertex_of(qubit) != goal:
                if self.state.occupied(goal):
                    self._vacate(goal, reserved | walls, walls | {self.vertex_of(qubit)})
                self.move_chain(self.vertex_of(qubit), goal, walls, reserved)
            walls = walls | {goal}
        if self.state.occupied(merge_at):
            self.park(merge_at, reserved, frozenset({left, right}), 0)
        self.emit(Merge(merge_at))
        gs = self.target_gate_vertex(gate)
        if merge_at != gs:
            self.move_chain(merge_at, gs)
        self.emit(ExecuteGate(gate.id))

    def _cross_once(self, gate: Gate, operand: int, rank: int = 0) -> None:
        """Swap the operand past one stranger chain.

        Merge the two at an exchange vertex, Swap, Separate: the pieces
        come back out on exchanged sides. This is the only way to reorder
        chains along a corridor. Prefers strangers sitting on a shortest
        path between the operands, nearest one first, since those are the
        chains actually wedging the delivery; rank picks the next one.
        """
        m = self._exchange_vertex(gate)
        left, right = self.graph.lateral_pair(m)
        reserved = frozenset({m, left, right})
        q1, q2 = gate.qubits
        ov = self.vertex_of(operand)
        own = len(self.state.chain_at(ov))
        d1 = self.dist(self.vertex_of(q1))
        d2 = self.dist(self.vertex_of(q2))
        span = d1.get(self.vertex_of(q2))
        od = d1 if operand == q1 else d2
        wedged: list[tuple[int, int]] = []
        others: list[tuple[int, int]] = []
        for vertex, chain in self.state.chains.items():
            if any(q in gate.qubits for q in chain):
                continue
            if vertex not in od:
                continue
            key = (od[vertex], vertex)
            if span is not None and d1.get(vertex, -1) + d2.get(vertex, -1) == span:
                wedged.append(key)
            else:
                others.append(key)
        candidates = sorted(wedged) + sorted(others)
        if rank >= len(candidates):
            raise CompileError("no chain available to cross with")
        chosen = self.state.chain_at(candidates[rank][1])
        marker = chosen[0]
        if len(chosen) + own > self.graph.capacity:
            # Too big to ride along through the exchange; split it there.
            self.move_chain(
                self.vertex_of(marker), m, frozenset(), frozenset({left, right})
            )
            for side in (left, right):
                if self.state.occupied(side):
                    self.park(side, {m, left, right}, frozenset({m}), 0)
            self.emit(Separate(m))
            return
        far = len(self.graph.vertex_ids) + 1
        sides = sorted(
            ((left, right), (right, left)),
            key=lambda lr: od.get(lr[0], far),
        )
        last: Exception | None = None
        for o_side, s_side in sides:
            snap = self.snapshot()
            try:
                walls: frozenset[int] = frozenset()
                for qubit, goal in ((operand, o_side), (marker, s_side)):
                    if self.vertex_of(qubit) != goal:
                        if self.state.occupied(goal):
                            self._vacate(
                                goal, reserved | walls, walls | {self.vertex_of(qubit)}
                            )
                        self.move_chain(self.vertex_of(qubit), goal, walls, reserved)
                    walls = frozenset({goal})
                if self.state.occupied(m):
                    self.park(m, reserved, frozenset({o_side, s_side}), 0)
                self.emit(Merge(m))
                self.emit(Swap(m))
                self.emit(Separate(m))
                return
            except (CompileError, IllegalOperationError) as exc:
                last = exc
                self.rollback(snap)
        raise last if last else CompileError("crossing failed")

    def _exchange_vertex(self, gate: Gate) -> int:
        gs = self.target_gate_vertex(gate)
        dist = self.dist(gs)
        best: tuple[int, int] | None = None
        for v in self.graph.vertex_ids:
            if v not in dist:
                continue
            if not all(self.graph.allows(v, f) for f in ("merge", "swap", "separate")):
                continue
            pair = self.graph.lateral_pair(v)
            if pair is None or any(self.graph.is_junction(s) for s in pair):
                continue
            if best is None or (dist[v], v) < best:
                best = (dist[v], v)
        if best is None:
            raise CompileError("trap cannot reorder chains")
        return best[1]

    def nearest_merge_vertex(self, gate: Gate) -> int:
        gs = self.target_gate_vertex(gate)
        dist = self.dist(gs)
        best: tuple[int, int] | None = None
        for v in self.graph.vertex_ids:
            if not self.graph.allows(v, "merge") or v not in dist:
                continue
            pair = self.graph.lateral_pair(v)
            if pair is None or any(self.graph.is_junction(s) for s in pair):
                continue
            if best is None or (dist[v], v) < best:
                best = (dist[v], v)
        if best is None:
            raise CompileError("trap has no usable Merge vertex")
        return best[1]

    # -- state-space search -------------------------------------------------

    def _search_next(self, cap: int, force_greedy: bool = False) -> bool:
        """Weighted best-first search to the nearest first-layer execution.

        Expands exact states through the kernel successor function. On
        oracle-sized traps the weight is 1 and the estimate stays a near
        lower bound, so slices stay near shortest; bigger traps trade that
        for stranger and corridor penalty terms that keep the frontier
        narrow (force_greedy selects those terms on any trap, the rescue
        mode for deep tangles). Returns False once `cap` expansions are
        spent so the caller can fall back to plan enumeration.

        Node cost is kept low without changing which nodes are expanded or
        in what order: the estimate and the seal penalty read the
        per-compile `_SearchTables`, positions and occupancy are computed
        once per expanded node and patched per pushed child from the
        vertices its op touches, and kernel.ready_gates runs only on nodes
        whose estimate is 1, the only ones where a gate can be ready.
        """
        trap = self.graph.encoded
        if self._tables is None:
            self._tables = _search_tables(self.graph)
        tables = self._tables
        n = trap[0]
        gates_enc = kernel.encode_gates(self.circuit.first_layer)
        if not gates_enc:
            return True
        greedy = force_greedy or n > ORACLE_MAX_VERTICES
        weight = 2 if greedy else 1
        heuristic = _estimate(tables, gates_enc, greedy)
        lat_left, lat_right = trap[5], trap[6]
        seal_exits = tables.seal_exits
        junction_mask = tables.junction_mask
        qubit_count = self.circuit.qubit_count

        start_chains, start_locks = kernel.encode_state(self.state, n)
        start = (start_chains, start_locks)
        best: dict[tuple, tuple] = {start: (0, None, None)}
        start_h = heuristic(start_chains, *_positions(start_chains, qubit_count))
        heap: list[tuple[int, int, int, tuple]] = [(weight * start_h, 0, 0, start)]
        counter = 0
        expansions = 0
        while heap:
            f, g, _, node = heapq.heappop(heap)
            if g > best[node][0]:
                continue
            chains, locks = node
            pos, occupied = _positions(chains, qubit_count)
            # A slice may route through junctions but must not end on one:
            # a chain resting there when the gate fires can lock half the
            # trap away for every later gate.
            if f - g == weight and not occupied & junction_mask:
                ready = kernel.ready_gates(trap, chains, gates_enc)
                codes = [(kernel.EXECUTE, min(ready), -1)]
                cur = node
                while True:
                    _, parent, code = best[cur]
                    if parent is None:
                        break
                    codes.append(code)
                    cur = parent
                for code in reversed(codes):
                    self.emit(op_mod.decode_op(code))
                return True
            expansions += 1
            if expansions > cap or len(best) > 1_500_000:
                return False
            for code, nxt_chains, nxt_locks in kernel.successors(trap, chains, locks):
                ng = g + 1
                kind, v, dst = code
                if kind == TRANSLATE:
                    exits = seal_exits[v]
                    if exits is not None and not occupied & exits[dst]:
                        # Leaving a junction with nothing behind it locks
                        # that region away for good (re-entry from the exit
                        # side is forbidden and no chain remains to tap it
                        # open). Permitted, since the last chain out of a
                        # stack always does this, but expensive enough to
                        # prefer any detour.
                        ng += 30
                nxt = (nxt_chains, nxt_locks)
                seen = best.get(nxt)
                if seen is not None and seen[0] <= ng:
                    continue
                best[nxt] = (ng, node, code)
                if kind == SWAP:
                    nxt_pos, nxt_occupied = pos, occupied
                else:
                    if kind == TRANSLATE:
                        touched: tuple[int, ...] = (dst,)
                        flipped = (1 << v) | (1 << dst)
                    else:
                        left, right = lat_left[v], lat_right[v]
                        touched = (v,) if kind == MERGE else (left, right)
                        flipped = (1 << v) | (1 << left) | (1 << right)
                    nxt_occupied = occupied ^ flipped
                    nxt_pos = pos.copy()
                    for w in touched:
                        for q in nxt_chains[w]:
                            nxt_pos[q] = w
                counter += 1
                heapq.heappush(
                    heap,
                    (ng + weight * heuristic(nxt_chains, nxt_pos, nxt_occupied), ng, counter, nxt),
                )
        return False

    def route_next(self) -> None:
        before = self.circuit
        self._route_gate()
        self._drain_junctions(before)
        self._tidy_after_execute()

    def _drain_junctions(self, before: Circuit) -> None:
        """Clear every junction as part of the slice just routed.

        Pushed chains may come to rest on a junction. Leaving one there
        can dead-end a whole region (the junction stays locked against its
        only occupied neighbor), and a finished schedule must end with all
        junctions empty anyway. The slice's ExecuteGate is popped and the
        circuit from before the slice, which `_route_gate` advanced by
        that one gate, is restored; junction chains park in storage (the
        gate vertex walled off), and the execute is re-emitted as the
        slice's closing op.
        """
        if not any(self.graph.is_junction(v) for v in self.state.chains):
            return
        last = self.ops.pop()
        assert isinstance(last, ExecuteGate)
        self.circuit = before
        gate = self.circuit.gate_by_id[last.gate]
        keep = frozenset(self.vertex_of(q) for q in gate.qubits)
        for _ in range(_MAX_PARK_DEPTH):
            occupied = sorted(v for v in self.state.chains if self.graph.is_junction(v))
            if not occupied:
                break
            self._vacate(occupied[0], frozenset(), keep)
        else:
            raise CompileError("junctions cannot be cleared for the final gate")
        self.emit(ExecuteGate(last.gate))

    def _tidy_after_execute(self) -> None:
        """Break up a freshly executed pair unless a pending gate reuses it.

        Leaving executed pairs in storage lets capacity-2 tangles build up
        that no exchange can unpick later; a Separate right at the gate
        vertex is cheap and cancels against an immediate re-Merge in the
        optimizer pass.
        """
        if self.circuit.is_complete:
            return
        if not self.ops or not isinstance(self.ops[-1], ExecuteGate):
            return
        gate = self.circuit.gate_by_id[self.ops[-1].gate]
        if len(gate.qubits) < 2:
            return
        vertex = self.vertex_of(gate.qubits[0])
        chain = self.state.chain_at(vertex)
        if len(chain) < 2:
            return
        stale = set(chain)
        for pending in self.circuit.first_layer:
            if set(pending.qubits) == stale:
                return
        try:
            self.emit(Separate(vertex))
        except IllegalOperationError:
            pass

    def _route_gate(self) -> None:
        gate = self.pick_gate()
        if op_mod.can_execute(self.state, self.graph, self.circuit, gate.id):
            self.emit(ExecuteGate(gate.id))
            return
        trap = self.graph.encoded
        chains, locks = kernel.encode_state(self.state, trap[0])
        first_layer = kernel.encode_gates(self.circuit.first_layer)
        if not kernel.reachable_gates(trap, chains, locks, first_layer):
            # Every search and plan below can only fail from here, after
            # spending its whole budget.
            raise CompileError(
                f"junction locks seal gate {gate.id}'s operands, and those of every "
                "other first-layer gate, away from any gate vertex where they could "
                "meet; the router boxed itself in, which does not prove that the "
                "circuit has no schedule"
            )
        exact = len(self.graph.vertices) <= ORACLE_MAX_VERTICES
        if exact:
            if self._search_next(_SEARCH_CAP_EXACT):
                return
        elif self._search_cooldown > 0:
            # A capped-out search usually means the trap is tangled enough
            # that the next few gates would cap out too; go straight to
            # plan enumeration instead of paying for the frontier again.
            self._search_cooldown -= 1
        elif self._search_next(_SEARCH_CAP):
            return
        else:
            self._search_cooldown = 2
        plans: list
        if len(gate.qubits) == 1:
            plans = [False, True]
            attempt = self._attempt_single
        else:
            q1, q2 = gate.qubits
            chain = self.state.chain_at(self.vertex_of(q1))
            if self.vertex_of(q1) == self.vertex_of(q2) and set(chain) == {q1, q2}:
                snap = self.snapshot()
                try:
                    gs = self.target_gate_vertex(gate)
                    self.move_chain(self.vertex_of(q1), gs)
                    self.emit(ExecuteGate(gate.id))
                    return
                except (CompileError, IllegalOperationError):
                    self.rollback(snap)
            # Strip and swap choices only matter when an operand actually
            # shares its chain with a stranger; collapsing the no-op axes
            # keeps the enumeration small on sparsely packed traps.
            dirty1 = set(chain) != {q1}
            dirty2 = set(self.state.chain_at(self.vertex_of(q2))) != {q2}
            plans = [
                _PairPlan(strip2, s1, s2, cross)
                for strip2 in ((False, True) if dirty1 and dirty2 else (False,))
                for s1 in ((False, True) if dirty1 else (False,))
                for s2 in ((False, True) if dirty2 else (False,))
                for cross in (False, True)
            ]
            attempt = self._attempt_pair
        best_ops: list[ShuttleOp] | None = None
        best_end: tuple[TrapState, Circuit] | None = None
        snap = self.snapshot()
        for plan in plans:
            try:
                attempt(gate, plan)
            except (CompileError, IllegalOperationError):
                self.rollback(snap)
                continue
            cost = len(self.ops) - snap[2]
            if best_ops is None or cost < len(best_ops):
                best_ops = self.ops[snap[2]:]
                best_end = (self.state, self.circuit)
            self.rollback(snap)
        if best_ops is None or best_end is None:
            # Plan enumeration covers single wedges and convoys; states with
            # several interleaved pairs occasionally defeat it and only an
            # expensive deep search can unpick them. Worth seconds here:
            # the alternative is failing the whole compile.
            if self._search_next(_SEARCH_CAP_RESCUE, force_greedy=True):
                return
            raise CompileError(f"no delivery plan routes gate {gate.id}")
        self.ops.extend(best_ops)
        self.state, self.circuit = best_end


def compile(circuit: Circuit, graph: TrapGraph) -> Schedule:
    """Compile a circuit into a valid schedule on the given trap.

    Deterministic: gate choice ties break on the lowest gate id and every
    plan comparison is ordered. Raises CompileError when no plan can route
    a gate (the trap is too full or lacks eligible vertices), or, without
    searching, when junction locks the router left behind seal every
    first-layer gate's operands apart. Neither proves that the circuit has
    no schedule on the trap.
    """
    try:
        placement = initial_placement(circuit, graph)
    except PlacementError as exc:
        raise CompileError(str(exc)) from exc
    router = _Router(graph, circuit, placement)
    while not router.circuit.is_complete:
        before = len(router.ops)
        router.route_next()
        if len(router.ops) == before and router.circuit.pending:
            raise CompileError("routing made no progress")
    ops = optimize(router.ops, graph, circuit, placement)
    return Schedule(graph, circuit, placement, tuple(ops))


def bfs_next_gate(
    state: TrapState, graph: TrapGraph, circuit: Circuit
) -> tuple[ShuttleOp, ...]:
    """Provably shortest op sequence ending in some first-layer gate execution.

    Exhaustive breadth-first search, so the instance must be small; the
    guards are hard limits, not tuning knobs.
    """
    if len(graph.vertices) > ORACLE_MAX_VERTICES:
        raise OracleLimitError(
            f"{len(graph.vertices)} vertices exceed the oracle limit of {ORACLE_MAX_VERTICES}"
        )
    if circuit.qubit_count > ORACLE_MAX_QUBITS:
        raise OracleLimitError(
            f"{circuit.qubit_count} qubits exceed the oracle limit of {ORACLE_MAX_QUBITS}"
        )
    gates = kernel.encode_gates(circuit.first_layer)
    if not gates:
        return ()
    trap = graph.encoded
    chains, locks = kernel.encode_state(state, trap[0])
    route = kernel.shortest_route(trap, chains, locks, gates)
    if route is None:
        raise NoRouteError("no operation sequence reaches a gate execution")
    return tuple(op_mod.decode_op(code) for code in route)


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
