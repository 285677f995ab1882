"""Trap graphs for segmented ion traps.

A trap is a connected undirected graph whose vertices hold short ordered
chains of qubits. Junctions are exactly the vertices of degree greater than
two; they never carry eligibility flags, so no chain reordering or gate can
happen on them. Separate and Merge act between a vertex and its two lateral
neighbors, which on non-path graphs are recorded explicitly per vertex.
"""

from __future__ import annotations

import json
from collections import deque
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
        separate_sites, merge_sites, swap_sites). Each per-vertex field is a
        length-n tuple indexed by vertex id (ids run 0..n-1, which
        construction checks); `lateral[v]` is `lateral_pair(v)`.
        `site_reasons` holds, for Separate, Merge and Swap in turn, each
        vertex's `site_violation`. The last three are the static site tables
        the enumerators loop over, the vertices where that reason is None, in
        vertex order: (v, left, right) triples for Separate and Merge, and
        plain vertices for Swap.
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


def _gate_vertex(vid: int, lateral: tuple[int, int] | None = None) -> Vertex:
    return Vertex(vid, VertexKind.GATE, frozenset(ELIGIBILITY_FLAGS), lateral)


def _edges(pairs) -> frozenset[tuple[int, int]]:
    return frozenset(tuple(sorted(p)) for p in pairs)


def build_linear(storage_per_side: int, capacity: int = DEFAULT_CAPACITY) -> TrapGraph:
    """Path trap: storage_per_side storage vertices on each side of the gate segment.

    Ids run left to right, the gate segment sits at id storage_per_side.
    """
    if storage_per_side < 1:
        raise TrapError("storage_per_side must be at least 1")
    gs = storage_per_side
    total = 2 * storage_per_side + 1
    vertices = {}
    for vid in range(total):
        if vid == gs:
            vertices[vid] = _gate_vertex(vid, (gs - 1, gs + 1))
        else:
            vertices[vid] = Vertex(vid, VertexKind.STORAGE)
    return TrapGraph(vertices, _edges((i, i + 1) for i in range(total - 1)), capacity)


def _branched_side(
    storage_per_side: int, stack_depth: int, junction_distance: int, two_stacks: bool
) -> tuple[list[str], dict[int, tuple[int, ...]]]:
    """Plan one side: spine kinds outward from the gate segment, plus stacks.

    Returns the spine as a kind list ("storage"/"junction") and a map from
    spine index to stack depths hanging off that junction.
    """
    spine: list[str] = ["storage"] * junction_distance
    stacks: dict[int, tuple[int, ...]] = {}
    storage = junction_distance
    while storage < storage_per_side or not stacks:
        spine.append("junction")
        depths = []
        for _ in range(2 if two_stacks else 1):
            # Last stack shrinks to the remaining need but never vanishes:
            # a stackless junction would drop to degree 2.
            depth = min(stack_depth, max(1, storage_per_side - storage))
            depths.append(depth)
            storage += depth
        stacks[len(spine) - 1] = tuple(depths)
        if storage < storage_per_side:
            spine.extend(["storage"] * (junction_distance - 1))
            storage += junction_distance - 1
    if spine[-1] == "junction":
        spine.append("storage")
    return spine, stacks


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
    side_spine, side_stacks = _branched_side(
        storage_per_side, stack_depth, junction_distance, two_stacks=False
    )
    return _assemble_spine_trap(side_spine, side_stacks, capacity)


def _assemble_spine_trap(
    side_spine: list[str], side_stacks: dict[int, tuple[int, ...]], capacity: int
) -> TrapGraph:
    """Mirror one planned side around a central gate segment and number it."""
    side_len = len(side_spine)
    gs = side_len
    spine_total = 2 * side_len + 1

    def left_id(side_idx: int) -> int:
        return gs - 1 - side_idx

    def right_id(side_idx: int) -> int:
        return gs + 1 + side_idx

    vertices: dict[int, Vertex] = {}
    kinds: dict[int, str] = {gs: "gate"}
    for idx, kind in enumerate(side_spine):
        kinds[left_id(idx)] = kind
        kinds[right_id(idx)] = kind

    edges = [(i, i + 1) for i in range(spine_total - 1)]
    next_id = spine_total
    stack_map: list[tuple[int, int]] = []  # (junction id, depth), numbered in id order
    for idx in sorted(side_stacks):
        for vid_fn in (left_id, right_id):
            for depth in side_stacks[idx]:
                stack_map.append((vid_fn(idx), depth))
    stack_map.sort(key=lambda item: item[0])
    for junction_id, depth in stack_map:
        prev = junction_id
        for _ in range(depth):
            kinds[next_id] = "storage"
            edges.append((prev, next_id))
            prev = next_id
            next_id += 1

    for vid in range(next_id):
        kind = kinds[vid]
        if kind == "gate":
            vertices[vid] = _gate_vertex(vid, (gs - 1, gs + 1))
        elif kind == "junction":
            vertices[vid] = Vertex(vid, VertexKind.JUNCTION)
        else:
            vertices[vid] = Vertex(vid, VertexKind.STORAGE)
    return TrapGraph(vertices, _edges(edges), capacity)


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
        side_spine, side_stacks = _branched_side(side, 2, 2, two_stacks=True)
        return _assemble_spine_trap(side_spine, side_stacks, capacity)
    raise TrapError(f"unknown eval layout {kind!r}")


def _build_ring(qubit_count: int, capacity: int) -> TrapGraph:
    tail = max(1, qubit_count // 3)
    arcs = max(2, qubit_count - tail)
    arc_a = (arcs + 1) // 2
    arc_b = arcs - arc_a
    junction = arc_a + 1
    total_ring = arc_a + arc_b + 2  # gate segment + both arcs + junction
    vertices: dict[int, Vertex] = {0: _gate_vertex(0)}
    edges = []
    for vid in range(1, total_ring):
        kind = VertexKind.JUNCTION if vid == junction else VertexKind.STORAGE
        vertices[vid] = Vertex(vid, kind)
    ring_order = list(range(total_ring))
    for a, b in zip(ring_order, ring_order[1:] + [0]):
        edges.append((a, b))
    prev = junction
    for offset in range(tail):
        vid = total_ring + offset
        vertices[vid] = Vertex(vid, VertexKind.STORAGE)
        edges.append((prev, vid))
        prev = vid
    return TrapGraph(vertices, _edges(edges), capacity)


def _build_multi_linear(qubit_count: int, capacity: int) -> TrapGraph:
    rail = max(1, -(-(qubit_count - 2) // 4))
    # Central rail: junction, inner storage, gate segment, inner storage, junction.
    vertices: dict[int, Vertex] = {
        0: Vertex(0, VertexKind.JUNCTION),
        1: Vertex(1, VertexKind.STORAGE),
        2: _gate_vertex(2, (1, 3)),
        3: Vertex(3, VertexKind.STORAGE),
        4: Vertex(4, VertexKind.JUNCTION),
    }
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    next_id = 5
    for junction in (0, 4):
        for _ in range(2):
            prev = junction
            for _ in range(rail):
                vertices[next_id] = Vertex(next_id, VertexKind.STORAGE)
                edges.append((prev, next_id))
                prev = next_id
                next_id += 1
    return TrapGraph(vertices, _edges(edges), capacity)


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
    except json.JSONDecodeError as exc:
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
