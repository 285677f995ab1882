"""Trap layout construction, invariants, and file round trips."""

import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from shuttlekit.errors import TrapError
from shuttlekit.trap import (
    EVAL_LAYOUT_KINDS,
    VertexKind,
    build_branched,
    build_eval_layout,
    build_linear,
    parse_trap,
    serialize_trap,
)


def degree(graph, v):
    return sum(1 for a, b in graph.edges if v in (a, b))


def storage_count(graph):
    return sum(1 for v in graph.vertices.values() if v.kind is VertexKind.STORAGE)


def check_structure(graph):
    """Structural invariants every layout has to satisfy."""
    ids = set(graph.vertex_ids)
    assert len(ids) == len(list(graph.vertex_ids))
    for a, b in graph.edges:
        assert a != b
        assert a in ids and b in ids
    # junction iff degree > 2
    for v in ids:
        assert graph.is_junction(v) == (degree(graph, v) > 2)
        if graph.is_junction(v):
            for flag in ("separate", "merge", "swap", "gate"):
                assert not graph.allows(v, flag)
    assert any(graph.allows(v, "gate") for v in ids)
    # connectivity by flood fill from the smallest id
    seen = {min(ids)}
    frontier = [min(ids)]
    while frontier:
        v = frontier.pop()
        for n in graph.neighbors(v):
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    assert seen == ids


# -- linear ---------------------------------------------------------------


def test_linear_seven_matches_published_shape():
    g = build_linear(7)
    assert len(list(g.vertex_ids)) == 15
    assert sorted(g.gate_vertices) == [7]
    assert storage_count(g) == 14


def test_linear_minimal_three_segments():
    g = build_linear(1)
    assert len(list(g.vertex_ids)) == 3
    assert sorted(g.gate_vertices) == [1]
    assert sorted(g.edges) == [(0, 1), (1, 2)]


def test_linear_two_is_a_plain_path():
    g = build_linear(2)
    assert sorted(g.edges) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert not any(g.is_junction(v) for v in g.vertex_ids)


@pytest.mark.parametrize("k", range(1, 17))
def test_linear_vertex_and_edge_counts(k):
    g = build_linear(k)
    assert len(list(g.vertex_ids)) == 2 * k + 1
    assert len(g.edges) == 2 * k
    check_structure(g)


def test_linear_rejects_zero():
    with pytest.raises(TrapError):
        build_linear(0)


def test_linear_gate_segment_owns_all_eligibility():
    g = build_linear(3)
    for v in g.vertex_ids:
        flags = [f for f in ("separate", "merge", "swap", "gate") if g.allows(v, f)]
        if v == 3:
            assert sorted(flags) == ["gate", "merge", "separate", "swap"]
        else:
            assert flags == []


# -- branched -------------------------------------------------------------


def test_branched_eight_per_side_has_23_segments():
    g = build_branched(8, 2, 3)
    assert len(list(g.vertex_ids)) == 23
    check_structure(g)


def test_branched_minimal_junction_degree():
    g = build_branched(1, 1, 1)
    junctions = [v for v in g.vertex_ids if g.is_junction(v)]
    assert junctions
    assert all(degree(g, v) == 3 for v in junctions)


def test_branched_junction_spacing_follows_parameter():
    # Two junctions per side; consecutive spine junction ids must sit
    # junction_distance apart.
    g = build_branched(8, 2, 2)
    junctions = sorted(v for v in g.vertex_ids if g.is_junction(v))
    assert junctions == [1, 3, 9, 11]
    gate = next(iter(g.gate_vertices))
    left = [v for v in junctions if v < gate]
    right = [v for v in junctions if v > gate]
    for side in (left, right):
        for a, b in zip(side, side[1:]):
            assert b - a == 2


def test_branched_storage_reaches_requested_count():
    for per_side in (3, 5, 8):
        g = build_branched(per_side, 2, 3)
        assert storage_count(g) >= 2 * per_side


def test_branched_parameter_validation():
    with pytest.raises(TrapError):
        build_branched(1, 2, 3)  # storage_per_side < junction_distance
    with pytest.raises(TrapError):
        build_branched(3, 0, 1)
    with pytest.raises(TrapError):
        build_branched(3, 1, 0)


@given(
    per_side=st.integers(min_value=1, max_value=10),
    stack=st.integers(min_value=1, max_value=3),
    spacing=st.integers(min_value=1, max_value=4),
)
def test_branched_structure_invariants(per_side, stack, spacing):
    if per_side < spacing:
        per_side = spacing
    check_structure(build_branched(per_side, stack, spacing))


# -- evaluation layouts ---------------------------------------------------


def test_eval_layout_kinds_are_fixed():
    assert EVAL_LAYOUT_KINDS == ("ring", "multi_linear", "four_way")


def test_four_way_junctions_have_degree_four():
    g = build_eval_layout("four_way", 7)
    junctions = [v for v in g.vertex_ids if g.is_junction(v)]
    assert junctions
    assert all(degree(g, v) == 4 for v in junctions)


def test_ring_contains_a_cycle():
    g = build_eval_layout("ring", 2)
    # a connected graph has a cycle iff |E| >= |V|
    assert len(g.edges) >= len(list(g.vertex_ids))


def test_multi_linear_golden_shape():
    # Frozen on first construction; layout generation must stay stable.
    g = build_eval_layout("multi_linear", 7)
    assert len(list(g.vertex_ids)) == 13
    assert len(g.edges) == 12
    assert sorted(v for v in g.vertex_ids if g.is_junction(v)) == [0, 4]
    assert storage_count(g) == 10
    assert sorted(g.gate_vertices) == [2]


@pytest.mark.parametrize("kind", EVAL_LAYOUT_KINDS)
@pytest.mark.parametrize("qubits", [2, 3, 5, 7, 11])
def test_eval_layouts_scale_storage_with_qubits(kind, qubits):
    g = build_eval_layout(kind, qubits)
    assert storage_count(g) >= qubits
    assert len(g.gate_vertices) == 1
    check_structure(g)


def test_eval_layout_rejects_unknown_kind():
    with pytest.raises(TrapError):
        build_eval_layout("torus", 4)
    with pytest.raises(TrapError):
        build_eval_layout("ring", 0)


# -- serialization --------------------------------------------------------


@pytest.mark.parametrize(
    "graph",
    [
        build_linear(1),
        build_linear(7),
        build_branched(8, 2, 3),
        build_eval_layout("ring", 5),
        build_eval_layout("multi_linear", 6),
        build_eval_layout("four_way", 7),
    ],
    ids=["linear1", "linear7", "branched", "ring", "multi_linear", "four_way"],
)
def test_serialize_parse_round_trip(graph):
    text = serialize_trap(graph)
    back = parse_trap(text)
    assert set(back.vertex_ids) == set(graph.vertex_ids)
    assert sorted(back.edges) == sorted(graph.edges)
    assert back.capacity == graph.capacity
    for v in graph.vertex_ids:
        assert back.is_junction(v) == graph.is_junction(v)
        for flag in ("separate", "merge", "swap", "gate"):
            assert back.allows(v, flag) == graph.allows(v, flag)
    # canonical form is a fixed point
    assert serialize_trap(back) == text


def test_serialize_is_canonical_json():
    text = serialize_trap(build_linear(2))
    data = json.loads(text)
    assert data["capacity"] == 2
    ids = [v["id"] for v in data["vertices"]]
    assert ids == sorted(ids)
    assert data["edges"] == sorted(data["edges"])


def test_builtin_layouts_serialize_to_pinned_digest():
    """Every built-in layout of a fixed sweep serializes to the same bytes."""
    graphs = []
    for c in (1, 2, 3):
        graphs += [build_linear(k, c) for k in range(1, 13)]
        graphs += [
            build_branched(p, s, d, c)
            for p in range(1, 17)
            for s in range(1, 5)
            for d in range(1, min(p, 5) + 1)
        ]
        graphs += [build_eval_layout(kind, q, c) for kind in EVAL_LAYOUT_KINDS for q in range(1, 17)]
    digest = hashlib.sha256("".join(map(serialize_trap, graphs)).encode()).hexdigest()
    assert len(graphs) == 1020
    assert digest == "e713533785e71dd0165c124888760f8ad75d4e4008d074aa847b0ca6cf20aa28"


def test_parse_rejects_edge_to_unknown_vertex():
    data = json.loads(serialize_trap(build_linear(1)))
    data["edges"].append([1, 99])
    with pytest.raises(TrapError, match="unknown vertex 99"):
        parse_trap(json.dumps(data))


def test_parse_rejects_eligibility_on_junction():
    data = json.loads(serialize_trap(build_branched(1, 1, 1)))
    junction = next(v for v in data["vertices"] if v["kind"] == "junction")
    junction["eligibility"] = ["swap"]
    with pytest.raises(TrapError):
        parse_trap(json.dumps(data))


def test_parse_rejects_duplicate_vertex_ids():
    data = json.loads(serialize_trap(build_linear(1)))
    data["vertices"].append(dict(data["vertices"][0]))
    with pytest.raises(TrapError, match="duplicate vertex"):
        parse_trap(json.dumps(data))


def test_parse_rejects_garbage():
    with pytest.raises(TrapError):
        parse_trap("not json at all {")
    with pytest.raises(TrapError):
        parse_trap(json.dumps([1, 2, 3]))


@pytest.mark.parametrize(
    "text", ['{"capacity": ' + "9" * 5000 + "}", "[" * 200_000], ids=["long_integer", "deep_nesting"]
)
def test_parse_rejects_json_the_decoder_cannot_load(text):
    with pytest.raises(TrapError, match="^trap file is not valid JSON: "):
        parse_trap(text)


def test_parse_rejects_non_contiguous_vertex_ids():
    # linear(1) with its right storage vertex renumbered 2 -> 5
    data = json.loads(serialize_trap(build_linear(1)))
    data["vertices"][2]["id"] = 5
    data["edges"] = [[0, 1], [1, 5]]
    data["vertices"][1]["lateral"] = [0, 5]
    with pytest.raises(TrapError, match=r"vertex ids must run 0\.\.2"):
        parse_trap(json.dumps(data))


def _linear1_with(change):
    data = json.loads(serialize_trap(build_linear(1)))
    change(data)
    return json.dumps(data)


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda d: d["vertices"].append(7), "vertex entry 7 must be an object"),
        (lambda d: d.update(vertices={"0": {}}), "vertices must be a list"),
        (lambda d: d["edges"].append(["1", 2]), "must be a two-item list of vertex ids"),
        (lambda d: d["vertices"][1].update(eligibility="gate"), "eligibility must be a list"),
        (lambda d: d["vertices"][1].update(lateral=[[0], 2]), "lateral must be a two-item list"),
        (lambda d: d.update(edges=7), "edges must be a list"),
        # JSON booleans load as Python bools, which isinstance(_, int) accepts
        (lambda d: d.update(capacity=True), "capacity must be an integer"),
        (lambda d: d["vertices"][1].update(id=True), "vertex id True is not an integer"),
        (lambda d: d.update(edges=[[0, 1], [1, True]]), "must be a two-item list of vertex ids"),
        (lambda d: d["vertices"][1].update(lateral=[0, True]), "lateral must be a two-item list"),
    ],
    ids=["vertex-not-object", "vertices-not-list", "string-endpoint",
         "eligibility-string", "lateral-not-ids", "edges-not-list",
         "bool-capacity", "bool-vertex-id", "bool-endpoint", "bool-lateral"],
)
def test_parse_rejects_malformed_entries(change, message):
    with pytest.raises(TrapError, match=message):
        parse_trap(_linear1_with(change))


def test_parse_rejects_disconnected_trap():
    def cut_right_storage(data):
        del data["vertices"][1]["lateral"]
        data["edges"] = [[0, 1]]

    with pytest.raises(TrapError, match=r"trap is disconnected; unreachable vertices \[2\]"):
        parse_trap(_linear1_with(cut_right_storage))
