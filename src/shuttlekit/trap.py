"""Trap graphs for segmented ion traps.

A trap is a connected undirected graph whose vertices hold short ordered
chains of qubits. Junctions are exactly the vertices of degree greater than
two; they never carry eligibility flags, so no chain reordering or gate can
happen on them. The layout builders state only edges and gate segments
(see `_assemble`).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import TrapError

DEFAULT_CAPACITY = 2

ELIGIBILITY_FLAGS = ("separate", "merge", "swap", "gate")


class VertexKind(Enum):
    GATE = "gate"
    STORAGE = "storage"
    JUNCTION = "junction"


@dataclass(frozen=True)
class Vertex:
    """One segment: id, kind, permission flags, optional lateral pair.

    The lateral pair is the ordered (left, right) neighbor pair used by
    Separate and Merge. Degree-2 vertices fall back to their sorted
    neighbors, so only vertices of higher degree ever need it spelled out.
    """

    id: int
    kind: VertexKind
    eligibility: frozenset[str] = frozenset()
    lateral: tuple[int, int] | None = None


@dataclass(frozen=True)
class TrapGraph:
    """Immutable trap layout: vertices, edges, uniform chain capacity."""

    vertices: dict[int, Vertex]
    edges: frozenset[tuple[int, int]]
    capacity: int = DEFAULT_CAPACITY

    def __post_init__(self) -> None:
        _validate(self)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return {v: tuple(sorted(ns)) for v, ns in nbrs.items()}

    @cached_property
    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def gate_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertex_ids if "gate" in self.vertices[v].eligibility)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def is_junction(self, v: int) -> bool:
        return self.vertices[v].kind is VertexKind.JUNCTION

    def allows(self, v: int, flag: str) -> bool:
        return flag in self.vertices[v].eligibility

    def lateral_pair(self, v: int) -> tuple[int, int] | None:
        """Ordered (left, right) pair for Separate/Merge at v, if designated."""
        explicit = self.vertices[v].lateral
        if explicit is not None:
            return explicit
        ns = self.adjacency[v]
        if len(ns) == 2:
            return (ns[0], ns[1])
        return None

    def site_violation(self, v: int, flag: str) -> str | None:
        """Why no state can separate, merge or swap (`flag`) at vertex v, or None if some can.

        Separate and Merge also need a lateral pair with no junction in it.
        """
        if not self.allows(v, flag):
            return f"vertex {v} does not allow {flag}"
        if flag == "swap":
            return None
        pair = self.lateral_pair(v)
        if pair is None:
            return f"vertex {v} has no lateral pair"
        for side in pair:
            if self.is_junction(side):
                return f"lateral vertex {side} is a junction"
        return None

    @cached_property
    def encoded(self) -> tuple:
        """The trap as the flat vertex-indexed tuples the kernel iterates over.

        (n, capacity, neighbors, is_junction, can_gate, lateral, site_reasons,
        separate_sites, merge_sites, swap_sites, gate_sites). Each per-vertex
        field is a length-n tuple indexed by vertex id (ids run 0..n-1, which
        construction checks); `lateral[v]` is `lateral_pair(v)`.
        `site_reasons` holds, for Separate, Merge and Swap in turn, each
        vertex's `site_violation`; each site table lists, in vertex order,
        the vertices where that reason is None, as (v, left, right) for
        Separate and Merge and plain vertices for Swap. `gate_sites` is
        `gate_vertices`, the only chains kernel.ready_gates reads.
        """
        ids = range(len(self.vertices))
        lateral = tuple(self.lateral_pair(v) for v in ids)
        separate, merge, swap = (
            tuple(self.site_violation(v, flag) for v in ids) for flag in ("separate", "merge", "swap")
        )
        return (
            len(ids),
            self.capacity,
            tuple(self.neighbors(v) for v in ids),
            tuple(self.is_junction(v) for v in ids),
            tuple(self.allows(v, "gate") for v in ids),
            lateral,
            (separate, merge, swap),
            tuple((v, *lateral[v]) for v in ids if separate[v] is None),
            tuple((v, *lateral[v]) for v in ids if merge[v] is None),
            tuple(v for v in ids if swap[v] is None),
            self.gate_vertices,
        )


def _validate(graph: TrapGraph) -> None:
    if not graph.vertices:
        raise TrapError("trap has no vertices")
    if graph.capacity < 1:
        raise TrapError(f"capacity must be positive, got {graph.capacity}")
    for vid, vertex in graph.vertices.items():
        if vid != vertex.id:
            raise TrapError(f"vertex {vertex.id} keyed under {vid}")
        bad = set(vertex.eligibility) - set(ELIGIBILITY_FLAGS)
        if bad:
            raise TrapError(f"vertex {vid} has unknown eligibility {sorted(bad)!r}")
    if sorted(graph.vertices) != list(range(len(graph.vertices))):
        raise TrapError(
            f"vertex ids must run 0..{len(graph.vertices) - 1}, got {sorted(graph.vertices)}"
        )

    degree = {v: 0 for v in graph.vertices}
    for a, b in graph.edges:
        if a == b:
            raise TrapError(f"self-loop on vertex {a}")
        for end in (a, b):
            if end not in graph.vertices:
                raise TrapError(f"edge ({a}, {b}) references unknown vertex {end}")
        if a > b:
            raise TrapError(f"edge ({a}, {b}) not normalized")
        degree[a] += 1
        degree[b] += 1

    for vid, vertex in graph.vertices.items():
        is_junction = vertex.kind is VertexKind.JUNCTION
        if is_junction != (degree[vid] > 2):
            raise TrapError(
                f"vertex {vid} has degree {degree[vid]} but kind {vertex.kind.value!r}"
            )
        if is_junction and vertex.eligibility:
            raise TrapError(
                f"junction {vid} cannot allow {sorted(vertex.eligibility)!r}"
            )
        if ("gate" in vertex.eligibility) != (vertex.kind is VertexKind.GATE):
            raise TrapError(
                f"vertex {vid}: kind {vertex.kind.value!r} inconsistent with gate eligibility"
            )
        if vertex.lateral is not None:
            left, right = vertex.lateral
            if left == right:
                raise TrapError(f"vertex {vid} lateral pair repeats {left}")
            for side in (left, right):
                if side not in graph.vertices:
                    raise TrapError(f"vertex {vid} lateral pair references unknown vertex {side}")
                if tuple(sorted((vid, side))) not in graph.edges:
                    raise TrapError(f"vertex {vid} lateral neighbor {side} is not adjacent")

    # Connectivity: every segment must be reachable for shuttling.
    reached = bfs_distances(graph, next(iter(graph.vertices)))
    if len(reached) != len(graph.vertices):
        missing = sorted(set(graph.vertices) - set(reached))
        raise TrapError(f"trap is disconnected; unreachable vertices {missing}")


def bfs_distances(graph: TrapGraph, source: int) -> dict[int, int]:
    """Hop distance from source to every vertex."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for n in graph.neighbors(v):
            if n not in dist:
                dist[n] = dist[v] + 1
                queue.append(n)
    return dist


def _path(start: int, first: int, length: int) -> list[tuple[int, int]]:
    """Edges of a path of `length` new vertices, ids from `first` on, hanging off `start`."""
    ids = [start, *range(first, first + length)]
    return list(zip(ids, ids[1:]))


def _assemble(
    edges: list[tuple[int, int]], gates: dict[int, tuple[int, int] | None], capacity: int
) -> TrapGraph:
    """Build vertices 0..n-1 from the edge list, reading each vertex's kind from its degree.

    A key of `gates` becomes a gate segment with every eligibility flag and
    the lateral pair given for it (None where its two neighbors imply it).
    Any other vertex is a junction above degree two and storage otherwise.
    """
    degree = Counter(v for edge in edges for v in edge)
    vertices = {}
    for vid in range(len(degree)):
        if vid in gates:
            vertices[vid] = Vertex(vid, VertexKind.GATE, frozenset(ELIGIBILITY_FLAGS), gates[vid])
        else:
            kind = VertexKind.JUNCTION if degree[vid] > 2 else VertexKind.STORAGE
            vertices[vid] = Vertex(vid, kind)
    return TrapGraph(vertices, frozenset(tuple(sorted(e)) for e in edges), capacity)


def build_linear(storage_per_side: int, capacity: int = DEFAULT_CAPACITY) -> TrapGraph:
    """Path trap: storage_per_side storage vertices on each side of the gate segment.

    Ids run left to right, the gate segment sits at id storage_per_side.
    """
    if storage_per_side < 1:
        raise TrapError("storage_per_side must be at least 1")
    return _assemble_spine_trap(storage_per_side, {}, capacity)


def _branched_side(
    storage_per_side: int, stack_depth: int, junction_distance: int, two_stacks: bool
) -> tuple[int, dict[int, tuple[int, ...]]]:
    """Plan one side: its spine length outward from the gate segment, plus stacks.

    Returns the number of spine vertices on the side and a map from spine
    index (0 next to the gate segment) to the stack depths hanging off the
    junction there.
    """
    length = storage = junction_distance
    stacks: dict[int, tuple[int, ...]] = {}
    while storage < storage_per_side or not stacks:
        depths = []
        for _ in range(2 if two_stacks else 1):
            # Last stack shrinks to the remaining need but never vanishes:
            # a stackless junction would drop to degree 2.
            depth = min(stack_depth, max(1, storage_per_side - storage))
            depths.append(depth)
            storage += depth
        stacks[length] = tuple(depths)
        length += 1
        if storage < storage_per_side:
            length += junction_distance - 1
            storage += junction_distance - 1
    if length - 1 in stacks:
        length += 1  # the spine ends in storage, not in a junction
    return length, stacks


def build_branched(
    storage_per_side: int,
    stack_depth: int,
    junction_distance: int,
    capacity: int = DEFAULT_CAPACITY,
) -> TrapGraph:
    """Linear spine with perpendicular storage stacks hanging off junctions.

    Each side of the central gate segment starts with junction_distance
    storage vertices, then alternates junction-plus-stack units spaced
    junction_distance apart until the side holds at least storage_per_side
    storage vertices. Spine ids run left to right, stack ids follow.
    """
    if storage_per_side < junction_distance:
        raise TrapError("storage_per_side must be at least junction_distance")
    if stack_depth < 1 or junction_distance < 1:
        raise TrapError("stack_depth and junction_distance must be at least 1")
    return _assemble_spine_trap(
        *_branched_side(storage_per_side, stack_depth, junction_distance, two_stacks=False),
        capacity,
    )


def _assemble_spine_trap(
    side_len: int, side_stacks: dict[int, tuple[int, ...]], capacity: int
) -> TrapGraph:
    """Mirror one planned side around a central gate segment and number it."""
    gs = side_len
    spine_total = 2 * side_len + 1
    edges = [(i, i + 1) for i in range(spine_total - 1)]
    # Stacks are numbered in junction id order; the sort is stable, so the
    # stacks on one junction keep their depth order.
    stacks = sorted(
        (
            (junction, depth)
            for idx, depths in side_stacks.items()
            for junction in (gs - 1 - idx, gs + 1 + idx)
            for depth in depths
        ),
        key=lambda item: item[0],
    )
    next_id = spine_total
    for junction, depth in stacks:
        edges += _path(junction, next_id, depth)
        next_id += depth
    return _assemble(edges, {gs: (gs - 1, gs + 1)}, capacity)


EVAL_LAYOUT_KINDS = ("ring", "multi_linear", "four_way")


def build_eval_layout(
    kind: str, qubit_count: int, capacity: int = DEFAULT_CAPACITY
) -> TrapGraph:
    """Evaluation layouts unseen during training, storage scaled to the circuit.

    ring: a cycle through the gate segment with one degree-3 junction
    carrying a storage tail. multi_linear: a central rail whose two end
    junctions each fan out into two parallel rails. four_way: a branched
    spine whose junctions carry opposing stacks (degree 4). All hold at
    least qubit_count storage vertices and exactly one gate segment.
    """
    if qubit_count < 1:
        raise TrapError("qubit_count must be at least 1")
    if kind == "ring":
        return _build_ring(qubit_count, capacity)
    if kind == "multi_linear":
        return _build_multi_linear(qubit_count, capacity)
    if kind == "four_way":
        side = max(2, (qubit_count + 1) // 2)
        return _assemble_spine_trap(*_branched_side(side, 2, 2, two_stacks=True), capacity)
    raise TrapError(f"unknown eval layout {kind!r}")


def _build_ring(qubit_count: int, capacity: int) -> TrapGraph:
    tail = max(1, qubit_count // 3)
    arcs = max(2, qubit_count - tail)
    ring = arcs + 2  # gate segment 0, both arcs, and the junction after the first arc
    edges = [(v, (v + 1) % ring) for v in range(ring)]
    edges += _path((arcs + 1) // 2 + 1, ring, tail)
    return _assemble(edges, {0: None}, capacity)


def _build_multi_linear(qubit_count: int, capacity: int) -> TrapGraph:
    rail = max(1, -(-(qubit_count - 2) // 4))
    # Central rail: junction, inner storage, gate segment, inner storage, junction.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    for first, junction in zip(range(5, 5 + 4 * rail, rail), (0, 0, 4, 4)):
        edges += _path(junction, first, rail)
    return _assemble(edges, {2: (1, 3)}, capacity)


def serialize_trap(graph: TrapGraph) -> str:
    """Canonical JSON text: vertices sorted by id, edges sorted pairwise."""
    vertices = []
    for vid in graph.vertex_ids:
        vertex = graph.vertices[vid]
        entry: dict = {
            "id": vid,
            "kind": vertex.kind.value,
            "eligibility": sorted(vertex.eligibility),
        }
        if vertex.lateral is not None:
            entry["lateral"] = list(vertex.lateral)
        vertices.append(entry)
    payload = {
        "capacity": graph.capacity,
        "vertices": vertices,
        "edges": sorted(list(e) for e in graph.edges),
    }
    return json.dumps(payload, indent=2) + "\n"


def _is_int(value) -> bool:
    """A JSON integer; JSON booleans load as Python bools, which are ints too."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(item) for item in value)


def parse_trap(text: str) -> TrapGraph:
    """Parse and fully validate a trap JSON document."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise TrapError(f"trap file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise TrapError("trap file must hold a JSON object")
    capacity = payload.get("capacity", DEFAULT_CAPACITY)
    if not _is_int(capacity):
        raise TrapError(f"capacity must be an integer, got {capacity!r}")
    entries = payload.get("vertices", [])
    if not isinstance(entries, list):
        raise TrapError("vertices must be a list")
    vertices: dict[int, Vertex] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise TrapError(f"vertex entry {entry!r} must be an object")
        vid = entry.get("id")
        if not _is_int(vid):
            raise TrapError(f"vertex id {vid!r} is not an integer")
        if vid in vertices:
            raise TrapError(f"duplicate vertex {vid}")
        kind_name = entry.get("kind", "storage")
        try:
            kind = VertexKind(kind_name)
        except ValueError:
            raise TrapError(f"vertex {vid} has unknown kind {kind_name!r}") from None
        lateral_raw = entry.get("lateral")
        lateral = None
        if lateral_raw is not None:
            if not (_is_int_list(lateral_raw) and len(lateral_raw) == 2):
                raise TrapError(f"vertex {vid} lateral must be a two-item list of vertex ids")
            lateral = (lateral_raw[0], lateral_raw[1])
        eligibility = entry.get("eligibility", [])
        if not (isinstance(eligibility, list) and all(isinstance(f, str) for f in eligibility)):
            raise TrapError(f"vertex {vid} eligibility must be a list of strings")
        vertices[vid] = Vertex(vid, kind, frozenset(eligibility), lateral)
    pairs = payload.get("edges", [])
    if not isinstance(pairs, list):
        raise TrapError("edges must be a list")
    edges = set()
    for pair in pairs:
        if not (_is_int_list(pair) and len(pair) == 2):
            raise TrapError(f"edge {pair!r} must be a two-item list of vertex ids")
        a, b = pair
        norm = tuple(sorted((a, b)))
        if norm in edges:
            raise TrapError(f"duplicate edge ({norm[0]}, {norm[1]})")
        edges.add(norm)
    return TrapGraph(vertices, frozenset(edges), capacity)
