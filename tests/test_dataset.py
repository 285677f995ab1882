"""Golden snapshots of the dataset the CLI writes and of rendered slice text."""

import hashlib
import json
import string
from importlib.resources import files
from pathlib import Path

import pytest

from shuttlekit import baseline, cli, dataset, kernel, ops, trap
from shuttlekit import schedule as schedule_mod
from shuttlekit.circuit import Circuit, Gate, parse_circuit
from shuttlekit.dataset import (
    DataEntry,
    generate_dataset,
    render_instruction,
    render_output,
    to_jsonl,
)
from shuttlekit.errors import RenderError
from shuttlekit.schedule import EntrySlice, decompose, parse_schedule, replay, schedule_paths
from shuttlekit.state import TrapState, position_lines

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"

# sha256 of the files written by
#   gen-dataset --seed 1 --qubits 2-3 --train-per-qubit 4 --eval-per-qubit 1
# A change here changes the training data: regenerate only on purpose.
GOLDEN = {
    "train.jsonl": "4b27017c351c14ea02e2cee2a70881754ba5a60744cdae7f6f64a929994fcb2e",
    "eval.jsonl": "80d5d4b19bb2200686df0b91689b52765d569cd030dc4d64fb1c8499820fde18",
}


def test_gen_dataset_matches_golden_snapshot(tmp_path, capsys):
    argv = [
        "gen-dataset", "--seed", "1", "--qubits", "2-3",
        "--train-per-qubit", "4", "--eval-per-qubit", "1",
        "--out-dir", str(tmp_path),
    ]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "train entries: 78\neval entries: 18\n"
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN


# sha256 over render_instruction, then render_output, of every slice of the
# pinned schedules perfbench/inputs/schedule_d200.txt and schedule_d400.txt
# and of baseline.compile(random_circuit(4, 6, s), ring(4)) for s = 0, 1, 2.
# The ring slices include states with junction locks set, which the linear
# traps of the snapshot above never reach.
RENDER_SHA256 = "9061150d477f5dd74ad2de392c8b6fb6513fa2220fb137adf3804c69c35866d4"


def render_corpus():
    """The schedules RENDER_SHA256 covers, in digest order."""
    schedules = []
    for name in ("schedule_d200.txt", "schedule_d400.txt"):
        text = (INPUTS / name).read_text(encoding="utf-8")
        trap_name, circuit_name = schedule_paths(text)
        graph = trap.parse_trap((INPUTS / trap_name).read_text(encoding="utf-8"))
        circuit = parse_circuit((INPUTS / circuit_name).read_text(encoding="utf-8"))
        schedules.append(parse_schedule(text, graph, circuit))
    ring = trap.build_eval_layout("ring", 4)
    for seed in range(3):
        schedules.append(baseline.compile(baseline.random_circuit(4, 6, seed), ring))
    return schedules


def test_rendered_slices_with_junction_locks_match_golden_digest():
    schedules = render_corpus()
    digest = hashlib.sha256()
    locked = 0
    for schedule in schedules:
        for piece in decompose(schedule):
            locked += any(lock != -1 for lock in piece.state.locks)
            digest.update(render_instruction(schedule.graph, piece.state, piece.circuit).encode())
            digest.update(render_output(piece, schedule.graph, piece.circuit).encode())
    assert locked == 40
    assert digest.hexdigest() == RENDER_SHA256


def test_slices_carry_the_states_their_shuttling_ops_lead_to():
    """Each slice's `states` is its shuttling ops stepped through ops.apply, locks included."""
    locked = 0
    for schedule in render_corpus():
        for piece in decompose(schedule):
            state, stepped = piece.state, []
            for op in piece.ops[:-1]:
                state = ops.apply(state, schedule.graph, piece.circuit, op)
                stepped.append(state)
            assert piece.states == tuple(stepped)
            locked += any(lock != -1 for echo in piece.states for lock in echo.locks)
    assert locked > 0


def rendered(schedules, count, eval_fraction=0):
    """Every entry of one generate_dataset run over `count` schedules, in order."""
    train = count - round(eval_fraction * count)
    return [e for _, entries in generate_dataset(schedules, train) for e in entries]


def counting(calls, name, function):
    """`function`, counting its calls in calls[name]."""
    def counted(*args):
        calls[name] += 1
        return function(*args)
    return counted


def test_rendering_steps_no_op(monkeypatch):
    """render_output steps nothing, and generate_dataset renders the slices a schedule holds.

    A schedule replays once, on its first decomposition; rendering its
    slices again, through render_output or generate_dataset, steps no op.
    """
    schedules = render_corpus()
    pieces = [(schedule.graph, piece) for schedule in schedules for piece in decompose(schedule)]
    calls = {"ops.apply": 0, "kernel.transition": 0}
    monkeypatch.setattr(ops, "apply", counting(calls, "ops.apply", ops.apply))
    monkeypatch.setattr(
        kernel, "transition", counting(calls, "kernel.transition", kernel.transition)
    )
    for graph, piece in pieces:
        render_output(piece, graph, piece.circuit)
    assert len(rendered(schedules, len(schedules))) == len(pieces)
    assert calls == {"ops.apply": 0, "kernel.transition": 0}


def test_generated_dataset_replays_each_compiled_schedule_once(monkeypatch):
    """Over compile_many, one schedule.replay per circuit and one ops.apply per op.

    The replay that validates a compiled schedule cuts the slices the
    dataset renders, and the router's ops are the ones that replay keeps.
    """
    calls = {"schedule.replay": 0, "ops.apply": 0}
    monkeypatch.setattr(
        schedule_mod, "replay", counting(calls, "schedule.replay", schedule_mod.replay)
    )
    monkeypatch.setattr(ops, "apply", counting(calls, "ops.apply", ops.apply))
    compiled = []
    for qubits in (2, 3, 4):
        circuits = [baseline.random_circuit(qubits, 5, 1 + 1000 * qubits + i) for i in range(5)]
        batch = baseline.compile_many(circuits, trap.build_linear(qubits))
        entries = rendered((compiled.append(s) or s for s in batch), len(circuits), 0.2)
        assert len(entries) == sum(len(c.gates) for c in circuits)
    assert calls == {
        "schedule.replay": len(compiled),
        "ops.apply": sum(len(schedule.ops) for schedule in compiled),
    }


# sha256 of the files written by
#   gen-dataset --schedule perfbench/inputs/schedule_d200.txt
#               --schedule perfbench/inputs/schedule_d400.txt
# which renders long schedules through their one trap graph's render memo.
SCHEDULE_GOLDEN = {
    "train.jsonl": "ff25fc88c1a8518fc8660a2bbd7b435144c4145b19b6538a5fdf0704231c1cf5",
    "eval.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def test_gen_dataset_from_schedule_files_matches_golden_snapshot(tmp_path, capsys, monkeypatch):
    """Both files name linear4.json, so they share one graph and render its 688 states once."""
    calls = {"successors": 0}
    monkeypatch.setattr(kernel, "successors", counting(calls, "successors", kernel.successors))
    argv = ["gen-dataset", "--out-dir", str(tmp_path)]
    for name in ("schedule_d200.txt", "schedule_d400.txt"):
        argv += ["--schedule", str(INPUTS / name)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "train entries: 1736\neval entries: 0\n"
    assert calls == {"successors": 688}
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in SCHEDULE_GOLDEN
    }
    assert digests == SCHEDULE_GOLDEN


def _allowed_text(state, graph, circuit):
    lines = [f"- {ops.format_op(op)}" for op in ops.allowed_ops(state, graph, circuit)]
    return "\n".join(lines) or "- none"


def test_rendered_allowed_operations_equal_allowed_ops():
    """Every "Allowed operations" block, in an entry or a render, is ops.allowed_ops formatted."""
    schedules = render_corpus()
    entries = iter(rendered(schedules, len(schedules)))
    echoes = 0
    for schedule in schedules:
        graph = schedule.graph
        for piece in decompose(schedule):
            entry = next(entries)
            assert entry == DataEntry(
                render_instruction(graph, piece.state, piece.circuit),
                render_output(piece, graph, piece.circuit),
            )
            allowed = entry.instruction.split("Allowed operations:\n")[1]
            assert allowed.split("\nProduce operations")[0] == _allowed_text(
                piece.state, graph, piece.circuit
            )
            state = piece.state
            blocks = entry.output.rstrip("\n").split("\n\n")
            assert len(blocks) == len(piece.ops)
            for op, block in zip(piece.ops[:-1], blocks):
                state = ops.apply(state, graph, piece.circuit, op)
                assert block.split("Allowed operations:\n")[1] == _allowed_text(
                    state, graph, piece.circuit
                )
                echoes += 1
    assert next(entries, None) is None
    assert echoes > 5_000


# Linear(2) is 0 - 1 - [2] - 3 - 4, Merge allowed at 2; branched(1, 1, 1)
# has junctions 1 and 5, and junction 1's lock below bars re-entry from 0.
LINEAR2 = trap.build_linear(2)
BRANCHED = trap.build_branched(1, 1, 1)
ONE_GATE = Circuit(2, (Gate(1, (0, 1)),))
ROUTE = ("Translate 0 -> 1", "Translate 4 -> 3", "Merge 2", "Execute Gate 1")


@pytest.mark.parametrize(
    "graph,chains,locks,lines,message",
    [
        (LINEAR2, {0: (0,), 4: (1,)}, {}, ("Translate 1 -> 2", *ROUTE[1:]),
         "Translate 1 -> 2: vertex 1 is empty"),
        (LINEAR2, {0: (0,), 4: (1,)}, {}, ("Separate 99", *ROUTE[1:]),
         "Separate 99: no vertex 99"),
        (LINEAR2, {0: (0,), 4: (1,)}, {}, (ROUTE[0], "Merge 2", *ROUTE[2:]),
         "Merge 2: lateral vertex 3 is empty"),
        (LINEAR2, {0: (0,), 4: (1,)}, {}, (*ROUTE[:2], "Swap 2", ROUTE[3]),
         "Swap 2: vertex 2 holds fewer than two qubits"),
        (LINEAR2, {0: (0,), 4: (1,)}, {}, (*ROUTE[:2], "Translate 3 -> 1", *ROUTE[2:]),
         "Translate 3 -> 1: vertices 3 and 1 are not adjacent"),
        (BRANCHED, {0: (0,), 7: (1,)}, {1: 0}, ("Translate 0 -> 1", "Execute Gate 1"),
         "Translate 0 -> 1: junction 1 was left toward 0 and cannot be re-entered from there"),
        (LINEAR2, {0: (0,), 4: (1,)}, {}, (ROUTE[0], "Execute Gate 1"),
         "Execute Gate 1: qubits of gate 1 sit in different vertices"),
        (LINEAR2, {0: (0,), 4: (1,)}, {}, (*ROUTE[:3], "Execute Gate 7"),
         "Execute Gate 7: unknown gate 7"),
        # Ready in the slice's first state, not in the state its last shuttle leaves.
        (LINEAR2, {2: (0, 1)}, {}, ("Separate 2", "Execute Gate 1"),
         "Execute Gate 1: qubits of gate 1 sit in different vertices"),
    ],
)
def test_illegal_slice_fails_render_with_the_replay_error(graph, chains, locks, lines, message):
    """Replay stops at an illegal op at any index with its rule, and cuts no slice to render.

    Rendering steps nothing: it echoes the states replay recorded, so an
    illegal op is caught by the replay that `decompose` runs, not later.
    """
    state = TrapState.from_dicts(graph, chains, locks)
    report, slices, _, _ = replay(graph, state, ONE_GATE, tuple(map(ops.parse_op, lines)))
    assert (report.ok, report.reason, report.final_state, slices) == (False, message, None, [])
    assert report.failure_index == lines.index(message.split(":")[0])


TWO_GATES = Circuit(2, (Gate(1, (0, 1)), Gate(2, (0, 1))))


@pytest.mark.parametrize(
    "chains,lines,states,found",
    [
        ({0: (0,), 4: (1,)}, (), 0, "0 ops with Execute Gates at indices [] and 0 states"),
        ({0: (0,), 4: (1,)}, ROUTE[:3], 3, "3 ops with Execute Gates at indices [] and 3 states"),
        ({2: (0, 1)}, ("Execute Gate 1", "Translate 0 -> 1", "Execute Gate 2"), 2,
         "3 ops with Execute Gates at indices [0, 2] and 2 states"),
        ({0: (0,), 4: (1,)}, ROUTE, 2, "4 ops with Execute Gates at indices [3] and 2 states"),
    ],
    ids=["empty", "no_execute", "execute_not_last", "a_state_short"],
)
def test_render_output_rejects_a_slice_not_ended_by_its_only_execute(chains, lines, states, found):
    """The shape check: one final Execute Gate, and one recorded state per shuttling op."""
    state = TrapState.from_dicts(LINEAR2, chains)
    piece = EntrySlice(state, TWO_GATES, tuple(map(ops.parse_op, lines)), (state,) * states)
    with pytest.raises(RenderError) as rejected:
        render_output(piece, LINEAR2, TWO_GATES)
    assert str(rejected.value) == (
        "a slice must end in its only Execute Gate, with one state per shuttling op; "
        f"this one has {found}"
    )


@pytest.mark.parametrize("chains", [{0: (0,), 4: (2,)}, {0: (0,)}, {0: (0,), 3: (2,), 4: (1,)}])
def test_rendering_a_state_without_the_circuits_qubits_is_an_error(chains):
    """Both renders reject a state that does not hold qubits 0..n-1, with one text."""
    state = TrapState.from_dicts(LINEAR2, chains)
    held = sorted(q for chain in chains.values() for q in chain)
    # The qubit check reads the start state only; the echo states just fill the shape.
    piece = EntrySlice(state, ONE_GATE, tuple(map(ops.parse_op, ROUTE)), (state,) * 3)
    with pytest.raises(RenderError) as instruction:
        render_instruction(LINEAR2, state, ONE_GATE)
    with pytest.raises(RenderError) as output:
        render_output(piece, LINEAR2, ONE_GATE)
    message = f"state holds qubits {held}, circuit expects 0..1"
    assert str(instruction.value) == str(output.value) == message


def test_generate_dataset_renders_each_distinct_state_once(monkeypatch):
    """One kernel.successors call per distinct (graph, chains, locks), for the graph's lifetime."""
    linear, ring = trap.build_linear(3), trap.build_eval_layout("ring", 4)
    schedules = [
        *baseline.compile_many([baseline.random_circuit(3, 6, seed) for seed in range(4)], linear),
        *baseline.compile_many([baseline.random_circuit(4, 6, seed) for seed in range(2)], ring),
    ]
    distinct, echoes = set(), 0
    for schedule in schedules:
        graph = schedule.graph
        for piece in decompose(schedule):
            state = piece.state
            distinct.add((id(graph), state.chains, state.locks))
            for op in piece.ops[:-1]:
                state = ops.apply(state, graph, piece.circuit, op)
                distinct.add((id(graph), state.chains, state.locks))
                echoes += 1
    assert len(distinct) < echoes
    calls = 0
    successors = kernel.successors

    def counted(*args):
        nonlocal calls
        calls += 1
        return successors(*args)

    monkeypatch.setattr(kernel, "successors", counted)
    first = list(generate_dataset(schedules, len(schedules) // 2))
    assert calls == len(distinct)
    assert list(generate_dataset(schedules, len(schedules) // 2)) == first
    assert calls == len(distinct)


def test_generate_dataset_builds_the_layout_once_per_graph(monkeypatch):
    """The "Trap layout" block is built once per distinct graph object, for its lifetime."""
    linear, ring = trap.build_linear(3), trap.build_eval_layout("ring", 4)
    schedules = [
        *baseline.compile_many([baseline.random_circuit(3, 6, seed) for seed in range(3)], linear),
        *baseline.compile_many([baseline.random_circuit(4, 6, seed) for seed in range(2)], ring),
        *baseline.compile_many([baseline.random_circuit(3, 6, 3)], linear),
    ]
    built = []
    vertex_lines = dataset._vertex_lines

    def counted(graph):
        built.append(graph)
        return vertex_lines(graph)

    monkeypatch.setattr(dataset, "_vertex_lines", counted)
    first = list(generate_dataset(schedules, len(schedules) // 2))
    assert sum(len(entries) for _, entries in first) > len(schedules)
    assert built == [linear, ring]
    assert list(generate_dataset(schedules, len(schedules) // 2)) == first
    assert built == [linear, ring]


TEMPLATE_TEXT = files("shuttlekit").joinpath("templates/instruction_v1.txt").read_text()


def _list(lines):
    return "\n".join(f"- {line}" for line in lines) or "- none"


def reference_instruction(graph, state, circuit):
    """The instruction as string.Template fills the template's seven fields."""
    spots = position_lines(state)
    return string.Template(TEMPLATE_TEXT).substitute(
        capacity=graph.capacity,
        vertex_block=_list(dataset._vertex_lines(graph)),
        edge_block=_list(f"{a} -- {b}" for a, b in sorted(graph.edges)),
        position_block=_list(spots),
        first_layer_block=_list(
            f"gate {g.id}: " + ", ".join(spots[q] for q in g.qubits) for g in circuit.first_layer
        ),
        next_layer_block=_list(
            f"gate {g.id} on qubits " + ", ".join(map(str, g.qubits))
            for g in circuit.next_executable
        ),
        allowed_block=_allowed_text(state, graph, circuit),
    )


def test_instructions_equal_the_template_substituted():
    """Joined template pieces equal Template.substitute, junction locks included."""
    schedules = render_corpus()
    entries = iter(rendered(schedules, len(schedules)))
    locked = 0
    for schedule in schedules:
        graph = schedule.graph
        for piece in decompose(schedule):
            expected = reference_instruction(graph, piece.state, piece.circuit)
            assert next(entries).instruction == expected
            assert render_instruction(graph, piece.state, piece.circuit) == expected
            locked += any(lock != -1 for lock in piece.state.locks)
    assert locked == 40


@pytest.mark.parametrize(
    "text,message",
    [
        (TEMPLATE_TEXT.replace("$edge_block", "$edge_block $legend"), "has fields"),
        (TEMPLATE_TEXT.replace("$edge_block", "edges"), "has fields"),
        (TEMPLATE_TEXT.replace("$capacity", "${capacity}").replace("$edge_block", "$capacity"),
         "has fields"),
        (TEMPLATE_TEXT.replace("Goal:", "Goal $:"), "names no field"),
        (TEMPLATE_TEXT.replace("Goal:", "Goal $$:"), "names no field"),
    ],
    ids=["unknown", "missing", "repeated", "stray", "escaped"],
)
def test_cutting_a_template_without_exactly_the_renderers_fields_fails(text, message):
    with pytest.raises(RenderError, match=message):
        dataset._cut(text)


def test_equal_graphs_render_alike_each_through_its_own_memo():
    """Equal graph objects render the same text; a render on one leaves the other's memo empty."""
    graphs = (trap.build_linear(2), trap.build_linear(2))
    assert graphs[0] == graphs[1] and graphs[0] is not graphs[1]
    texts = []
    for graph in graphs:
        assert "_render_memo" not in graph.__dict__
        state = TrapState.from_dicts(graph, {0: (0,), 4: (1,)})
        piece = EntrySlice(state, ONE_GATE, tuple(map(ops.parse_op, ROUTE)), (state,) * 3)
        instruction = render_instruction(graph, state, ONE_GATE)
        texts.append((instruction, render_output(piece, graph, ONE_GATE)))
        assert len(dataset._render_memo(graph)[1]) == 1
    assert texts[0] == texts[1]
    assert dataset._render_memo(graphs[0]) is not dataset._render_memo(graphs[1])


def test_rendering_each_slice_alone_renders_each_state_once(monkeypatch):
    """Separate render_output calls share the graph's memo, which then serves every instruction.

    Each distinct echoed state of schedule_d400.txt costs one kernel.successors
    call; every slice start is also an echoed state, so no instruction costs one.
    """
    schedule = render_corpus()[1]
    slices = decompose(schedule)
    calls = {"successors": 0}
    monkeypatch.setattr(kernel, "successors", counting(calls, "successors", kernel.successors))
    for piece in slices:
        render_output(piece, schedule.graph, piece.circuit)
    assert calls == {"successors": 688}
    for piece in slices:
        render_instruction(schedule.graph, piece.state, piece.circuit)
    assert calls == {"successors": 688}


def test_a_freed_trap_never_lends_its_memo_to_the_next():
    """Traps dropped after use cannot hand their ids, and so their memos, to later traps."""
    builders = (
        lambda: trap.build_linear(2),
        lambda: trap.build_linear(3),
        lambda: trap.build_eval_layout("ring", 4),
    )
    expected = []

    def schedules():
        for i in range(300):
            graph = builders[i % 3]()
            schedule = baseline.compile(baseline.random_circuit(2 + i % 3, 1, i), graph)
            for piece in decompose(schedule):
                instruction = render_instruction(graph, piece.state, piece.circuit)
                expected.append(DataEntry(instruction, render_output(piece, graph, piece.circuit)))
            yield schedule

    assert rendered(schedules(), 300) == expected
    assert len(expected) > 600


# Linear(1) is 0 - [1] - 2 with capacity 2; one qubit on each vertex
# leaves no Translate target and no chain to separate or swap.
LINEAR1 = trap.build_linear(1)
PACKED = TrapState.from_dicts(LINEAR1, {0: (0,), 1: (1,), 2: (2,)})


@pytest.mark.parametrize(
    "operands,allowed", [((0, 2), "- none"), ((1,), "- Execute Gate 1")], ids=["none", "gate"]
)
def test_allowed_block_of_a_state_without_shuttling_ops(operands, allowed):
    circuit = Circuit(3, (Gate(1, operands),))
    instruction = render_instruction(LINEAR1, PACKED, circuit)
    block = instruction.split("Allowed operations:\n")[1].split("\nProduce operations")[0]
    assert block == allowed == _allowed_text(PACKED, LINEAR1, circuit)


def test_generate_dataset_never_substitutes_the_template(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Template.substitute called")

    monkeypatch.setattr(string.Template, "substitute", refuse)
    dataset._template.cache_clear()
    built = generate_dataset(render_corpus(), 4)
    splits = [(split, bool(entries)) for split, entries in built]
    assert splits == [("train", True)] * 4 + [("eval", True)]


def test_to_jsonl_writes_what_json_dumps_writes():
    entries = [DataEntry("qubit 0 at [1, 0]\n\"α\"", "Execute Gate 1\n"), DataEntry("", "\u2028")]
    assert to_jsonl(entries) == "".join(
        json.dumps({"instruction": e.instruction, "input": "", "output": e.output},
                   ensure_ascii=False) + "\n"
        for e in entries
    )
    assert to_jsonl([]) == ""
