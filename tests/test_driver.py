"""Generate–validate–retry driver against scripted and replayed clients."""

import importlib
import json
import random
import re
from itertools import count
from pathlib import Path
from types import SimpleNamespace
from urllib.error import HTTPError, URLError

import pytest
from hypothesis import given, strategies as st

from shuttlekit import baseline, driver, kernel, ops, trap
from shuttlekit.baseline import random_circuit
from shuttlekit.circuit import Circuit, Gate
from shuttlekit.dataset import parse_output, render_instruction, render_output
from shuttlekit.driver import (
    GenerationParams,
    MockCompletionClient,
    RecordingClient,
    ReplayCompletionClient,
    generate_schedule,
    request_digest,
    run_benchmark,
    word_count,
)
from shuttlekit.errors import IllegalOperationError, OutputParseError, TransportError
from shuttlekit.ops import Translate, format_op
from shuttlekit.schedule import decompose, step, validate
from test_ops import OUT_OF_RANGE

GRAPH = trap.build_linear(2)
CIRCUIT = random_circuit(3, 3, 0)
COMPILED = baseline.compile(CIRCUIT, GRAPH)
SLICES = decompose(COMPILED)
OUTPUTS = [render_output(piece, GRAPH, piece.circuit) for piece in SLICES]

UNPARSEABLE = "Translate 0 -> nowhere\nExecute Gate 1\n"
ILLEGAL = "Translate 0 -> 4\nExecute Gate 1\n"  # 0 and 4 are not adjacent
NO_EXECUTE = "Swap 2\nthe gate is ready now\n"


def tokens(text):
    return len(text.split())


def redundant(index, graph=GRAPH, slices=SLICES, outputs=OUTPUTS):
    """outputs[index] led by a legal back-and-forth Translate the optimizer cancels.

    A bounce through a junction rewrites its lock, so it is not redundant.
    """
    state = slices[index].state
    for vertex in (v for v, chain in enumerate(state.chains) if chain):
        for n in graph.neighbors(vertex):
            if not state.chains[n] and not graph.is_junction(n):
                pair = (Translate(vertex, n), Translate(n, vertex))
                return "".join(format_op(op) + "\n" for op in pair) + "\n" + outputs[index]
    raise AssertionError("no free neighbor to bounce into")


def faulty_script():
    """Every slice once, three rejected outputs and one redundant slice among them."""
    script = [UNPARSEABLE, OUTPUTS[0], ILLEGAL, OUTPUTS[1], NO_EXECUTE, OUTPUTS[2]]
    script.append(redundant(3))
    script.extend(OUTPUTS[4:])
    return script


def run(client, params=GenerationParams()):
    return generate_schedule(CIRCUIT, GRAPH, client, params, clock=lambda: 0.0)


def test_injected_faults_fail_where_intended():
    with pytest.raises(OutputParseError, match="malformed operation"):
        parse_output(UNPARSEABLE)
    with pytest.raises(OutputParseError, match="no Execute Gate"):
        parse_output(NO_EXECUTE)
    with pytest.raises(IllegalOperationError):
        step(GRAPH, COMPILED.placement, CIRCUIT, parse_output(ILLEGAL)[0])


def test_an_op_number_in_other_digits_is_malformed():
    with pytest.raises(OutputParseError, match="line 1: malformed operation 'Execute Gate \uff11'"):
        parse_output("Execute Gate \uff11\n")


# Every line break str.splitlines cuts at besides "\n"; "\r\n" counts as one.
LINE_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=[repr(b) for b in LINE_BREAKS])
def test_a_line_is_what_splitlines_cuts(brk):
    """An op line after any break parses; after k breaks, a malformed one is line k+1."""
    parsed = parse_output(f"the plan{brk}Swap 2{brk}Execute Gate 1")
    assert parsed == [ops.Swap(2), ops.ExecuteGate(1)]
    for k in range(4):
        text = f"echo{brk}" * k + "Merge 3 now\nExecute Gate 1\n"
        with pytest.raises(OutputParseError) as rejected:
            parse_output(text)
        assert str(rejected.value) == f"line {k + 1}: malformed operation 'Merge 3 now'"


OP_WORD = r"(Translate|Separate|Merge|Swap|Execute)\b"
THINK_OPEN, THINK_CLOSE = re.compile(r"<think\b[^>]*>", re.I), re.compile(r"</think\s*>", re.I)


def reference_parse_output(text):
    """parse_output as a loop over str.splitlines, dropping reasoning tag by tag."""
    kept, pos = [], 0
    while (opened := THINK_OPEN.search(text, pos)) is not None:
        kept.append(text[pos : opened.start()])
        closed = THINK_CLOSE.search(text, opened.end())
        pos = len(text) if closed is None else closed.end()
    kept.append(text[pos:])
    parsed = []
    for lineno, raw in enumerate("".join(kept).splitlines(), start=1):
        line = raw.strip()
        if raw.startswith((" ", "\t", "-")) or not re.match(OP_WORD, line):
            continue
        try:
            parsed.append(ops.parse_op(line))
        except ValueError:
            raise OutputParseError(f"line {lineno}: malformed operation {line!r}") from None
        if parsed[-1].kind == kernel.EXECUTE:
            return parsed
    raise OutputParseError("output contains no Execute Gate line")


PIECES = [*LINE_BREAKS, "\n", "\x1f", "\xa0", "\u3000", " ", "\t", "-", "<think>", "</THINK >",
          "<think x\n>", "Translate 1 -> 2", "Separate 3", "Merge", "Swap 07", "Execute Gate 4",
          "Execute", "Swapped", " -> ", "5", "\uff15", "x"]


def test_parse_output_reads_what_the_splitlines_loop_reads():
    """One scan over the whole output reads every text as the line-by-line reference does."""
    rng = random.Random(5)
    for _ in range(3000):
        text = "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 30)))
        results = []
        for parse in (parse_output, reference_parse_output):
            try:
                results.append(parse(text))
            except OutputParseError as exc:
                results.append(str(exc))
        assert results[0] == results[1], text


def test_faulty_outputs_are_retried_and_redundancy_trimmed():
    schedule, stats = run(MockCompletionClient(faulty_script()))
    assert stats.outcome == "complete"
    assert stats.failure_reason is None
    assert stats.retries == 3
    assert schedule.placement == COMPILED.placement
    assert schedule.ops == COMPILED.ops
    assert stats.ops_count == len(COMPILED.ops)
    assert stats.gates_executed == len(CIRCUIT.gates)
    rejected = tokens(UNPARSEABLE) + tokens(ILLEGAL) + tokens(NO_EXECUTE)
    assert stats.tokens_total - stats.tokens_final == rejected


def test_each_state_is_rendered_once_and_retries_resend_it(monkeypatch):
    """One render per executed gate; every retry resends its state's one rendered instruction."""
    renders = 0

    def counted(*args, **kwargs):
        nonlocal renders
        renders += 1
        return render_instruction(*args, **kwargs)

    monkeypatch.setattr(driver, "render_instruction", counted)
    client = MockCompletionClient(faulty_script())
    _, stats = run(client)
    assert (stats.outcome, stats.retries) == ("complete", 3)
    assert renders == stats.gates_executed == len(SLICES)
    fresh = [render_instruction(GRAPH, piece.state, piece.circuit) for piece in SLICES]
    assert client.calls == [fresh[i] for i in (0, 0, 1, 1, 2, 2)] + fresh[3:]


def test_runs_on_one_graph_share_its_render_memo(monkeypatch):
    """A state's text outlives the run that rendered it, so a rerun on the graph renders none."""
    graph, calls, totals = trap.build_linear(2), [], []
    successors = kernel.successors
    monkeypatch.setattr(kernel, "successors", lambda *args: calls.append(args) or successors(*args))
    for _ in range(2):
        client = MockCompletionClient(OUTPUTS)
        _, stats = generate_schedule(CIRCUIT, graph, client, clock=lambda: 0.0)
        assert stats.outcome == "complete"
        totals.append(len(calls))
    assert totals == [len({(p.state.chains, p.state.locks) for p in SLICES})] * 2


def test_accepted_slices_are_stepped_once(monkeypatch):
    """The replay that accepts a slice is the one that trims it."""
    script = [redundant(0)] + OUTPUTS[1:]
    applied = 0
    apply = ops.apply

    def counted(*args):
        nonlocal applied
        applied += 1
        return apply(*args)

    monkeypatch.setattr(ops, "apply", counted)
    schedule, stats = run(MockCompletionClient(script))
    assert (stats.outcome, stats.retries) == ("complete", 0)
    assert schedule.ops == COMPILED.ops
    assert applied == sum(len(parse_output(text)) for text in script)


def test_consecutive_invalid_outputs_fail_with_a_legal_partial_schedule():
    kept = 2
    script = OUTPUTS[:kept] + [ILLEGAL] * 10
    schedule, stats = run(MockCompletionClient(script))
    assert stats.outcome == "failed"
    assert stats.failure_reason == (
        "10 consecutive invalid outputs for one instruction; "
        "last: Translate 0 -> 4: vertices 0 and 4 are not adjacent"
    )
    assert stats.retries == 10
    assert stats.gates_executed == kept
    assert schedule.ops == tuple(op for piece in SLICES[:kept] for op in piece.ops)
    report = validate(schedule)
    assert report.failure_index is None
    assert report.reason == f"unexecuted gates remain ({kept} of {len(CIRCUIT.gates)})"
    # Vertex ids far outside the trap are illegal ops too, each one a retry.
    for line, reason in OUT_OF_RANGE:
        script = OUTPUTS[:kept] + [f"{line}\nExecute Gate 1\n"] * 10
        schedule, stats = run(MockCompletionClient(script))
        assert (stats.outcome, stats.retries, stats.gates_executed) == ("failed", 10, kept)
        assert stats.failure_reason == (
            f"10 consecutive invalid outputs for one instruction; last: {line}: {reason}"
        )


class Flaky:
    """Raises TransportError("x") `failures` times, then answers from `script`."""

    def __init__(self, failures, script):
        self.failures = failures
        self.inner = MockCompletionClient(script)

    def complete(self, instruction, max_tokens, temperature):
        if self.failures:
            self.failures -= 1
            raise TransportError("x")
        return self.inner.complete(instruction, max_tokens, temperature)


def test_transient_transport_errors_are_retried_without_tokens():
    schedule, stats = run(Flaky(2, OUTPUTS))
    assert (stats.outcome, stats.retries, stats.failure_reason) == ("complete", 2, None)
    assert schedule.ops == COMPILED.ops
    answered = sum(map(tokens, OUTPUTS))
    assert stats.tokens_total == stats.tokens_final == answered


def test_consecutive_transport_errors_fail_the_run():
    params = GenerationParams()
    client = Flaky(params.max_consecutive_invalid, OUTPUTS)
    schedule, stats = run(client, params)
    assert (stats.outcome, stats.failure_reason) == ("failed", "transport: x")
    assert stats.retries == params.max_consecutive_invalid
    assert (stats.gates_executed, stats.tokens_total, schedule.ops) == (0, 0, ())
    assert client.inner.calls == []


def test_an_exhausted_time_budget_fails_before_any_request():
    client = MockCompletionClient(OUTPUTS)
    schedule, stats = generate_schedule(
        CIRCUIT, GRAPH, client, GenerationParams(budget_seconds=0), clock=count().__next__
    )
    assert (stats.outcome, stats.failure_reason) == ("failed", "time budget exhausted")
    assert (stats.retries, stats.gates_executed, schedule.ops) == (0, 0, ())
    assert client.calls == []


# On branched(2, 1, 1) the placement puts qubit 2 on vertex 2, next to
# junction 1; the lone gate acts on qubits 0 and 1, which share vertex 3.
JUNCTION_GRAPH = trap.build_branched(2, 1, 1)
JUNCTION_CIRCUIT = Circuit(3, (Gate(1, (0, 1)),))
PARKED = "Translate 2 -> 1\n\nExecute Gate 1\n"


def test_a_final_slice_that_leaves_a_junction_occupied_is_retried():
    """Every op is legal, but the schedule the slice completes fails validate."""
    client = MockCompletionClient([PARKED] * 10)
    schedule, stats = generate_schedule(
        JUNCTION_CIRCUIT, JUNCTION_GRAPH, client, clock=lambda: 0.0
    )
    assert (stats.outcome, stats.retries, stats.gates_executed) == ("failed", 10, 0)
    assert stats.failure_reason.endswith("; last: junction 1 occupied at the end")
    assert schedule.ops == ()


def test_a_gate_executed_again_is_an_illegal_op():
    done = SLICES[0].ops[-1].a
    again = f"Execute Gate {done}\n"
    schedule, stats = run(MockCompletionClient([OUTPUTS[0], again, *OUTPUTS[1:]]))
    assert (stats.outcome, stats.retries) == ("complete", 1)
    assert schedule.ops == COMPILED.ops
    _, stats = run(MockCompletionClient([OUTPUTS[0]] + [again] * 10))
    assert (stats.outcome, stats.retries, stats.gates_executed) == ("failed", 10, 1)
    assert stats.failure_reason.endswith(
        f"; last: Execute Gate {done}: gate {done} is not in the first layer"
    )


def parked(graph, piece):
    """The slice's output with a bystander chain moved onto a junction before its gate."""
    state, circuit = piece.state, piece.circuit
    for op in piece.ops[:-1]:
        state, circuit = step(graph, state, circuit, op)
    for vertex in (v for v, chain in enumerate(state.chains) if chain):
        for junction in filter(graph.is_junction, graph.neighbors(vertex)):
            park = Translate(vertex, junction)
            try:
                step(graph, step(graph, state, circuit, park)[0], circuit, piece.ops[-1])
            except IllegalOperationError:
                continue
            return "".join(format_op(op) + "\n" for op in (*piece.ops[:-1], park, piece.ops[-1]))
    raise AssertionError("no chain can park on a junction")


@pytest.mark.parametrize(
    "graph",
    [trap.build_linear(2), trap.build_branched(1, 1, 1), trap.build_eval_layout("ring", 4)],
    ids=["linear2", "branched111", "ring4"],
)
def test_a_complete_run_is_always_a_valid_schedule(graph):
    slices = decompose(baseline.compile(CIRCUIT, graph))
    outputs = [render_output(piece, graph, piece.circuit) for piece in slices]
    rejected = [UNPARSEABLE, NO_EXECUTE] + [f"{line}\nExecute Gate 1\n" for line, _ in OUT_OF_RANGE]
    faulty = []
    for index, output in enumerate(outputs):
        faulty += [rejected[index % len(rejected)], output]
    scripts = {
        "faulty": faulty,
        "redundant": [redundant(i, graph, slices, outputs) for i in range(len(outputs))],
        "out_of_range": outputs[:-1] + [rejected[-1]] * 10,
    }
    if any(map(graph.is_junction, graph.vertices)):
        last = parked(graph, slices[-1])
        scripts["parked_then_clean"] = outputs[:-1] + [last, outputs[-1]]
        scripts["parked"] = outputs[:-1] + [last] * 10
    outcomes = {}
    for name, script in scripts.items():
        schedule, stats = generate_schedule(
            CIRCUIT, graph, MockCompletionClient(script), clock=lambda: 0.0
        )
        assert validate(schedule).ok == (stats.outcome == "complete"), name
        outcomes[name] = stats.outcome
    assert outcomes["faulty"] == outcomes["redundant"] == "complete"
    assert outcomes["out_of_range"] == outcomes.get("parked", "failed") == "failed"
    assert outcomes.get("parked_then_clean", "complete") == "complete"


def test_record_then_replay_reproduces_the_run(tmp_path):
    path = tmp_path / "exchanges.jsonl"
    recorded = run(RecordingClient(MockCompletionClient(faulty_script()), str(path)))
    replayed = run(ReplayCompletionClient(str(path)))
    assert replayed == recorded
    assert recorded[1].retries == 3


class Live:
    """A live client: answers each instruction with its compiled slice, except
    that the second request times out and every third answer does not parse."""

    def __init__(self, cells):
        self.answers = {}
        for circuit, graph in cells:
            for piece in decompose(baseline.compile(circuit, graph)):
                instruction = render_instruction(graph, piece.state, piece.circuit)
                self.answers[instruction] = render_output(piece, graph, piece.circuit)
        self.calls = 0

    def complete(self, instruction, max_tokens, temperature):
        self.calls += 1
        if self.calls == 2:
            raise TransportError("timed out")
        text = UNPARSEABLE if self.calls % 3 == 0 else self.answers[instruction]
        return driver.CompletionResult(text, tokens(text))


def test_a_transport_error_is_recorded_and_replayed(tmp_path):
    path = tmp_path / "exchanges.jsonl"
    recorded = run(RecordingClient(Live([(CIRCUIT, GRAPH)]), str(path)))
    second = render_instruction(GRAPH, SLICES[1].state, SLICES[1].circuit)
    params = GenerationParams()
    assert json.loads(path.read_text(encoding="utf-8").splitlines()[1]) == {
        "digest": request_digest(second, params.max_tokens, params.temperature),
        "error": "timed out",
        "permanent": False,
    }
    assert run(ReplayCompletionClient(str(path))) == recorded
    assert (recorded[1].outcome, recorded[1].retries) == ("complete", 4)


def test_a_recorded_bench_replays_row_for_row(tmp_path):
    circuits = [("c", CIRCUIT)]
    graphs = [("linear(2)", GRAPH), ("linear(3)", trap.build_linear(3))]
    live = Live([(CIRCUIT, graph) for _, graph in graphs])
    path = tmp_path / "exchanges.jsonl"
    recorder = RecordingClient(live, str(path))
    recorded = run_benchmark(circuits, graphs, recorder, 2, clock=lambda: 0.0)
    replay = ReplayCompletionClient(str(path))
    assert run_benchmark(circuits, graphs, replay, 2, clock=lambda: 0.0) == recorded
    assert replay.cursor == len(replay.records) == live.calls
    assert [row["completed"] for row in recorded] == [2, 2]


def test_a_circuit_that_cannot_be_placed_fails_its_cell_without_a_request():
    client = MockCompletionClient([])
    rows = run_benchmark(
        [("c", random_circuit(5, 2, 0))], [("t", trap.build_linear(1))], client, 3
    )
    assert rows == [
        {"circuit": "c", "trap": "t", "temperature": 0.7, "runs": 3, "completed": 0,
         "result": "failed (0)", "ops": 0, "gates_executed": 0, "retries": 0,
         "tokens_final": 0, "tokens_total": 0},
    ]
    assert client.calls == []


def test_replay_rejects_a_changed_instruction(tmp_path):
    path = tmp_path / "exchanges.jsonl"
    run(RecordingClient(MockCompletionClient(OUTPUTS), str(path)))
    params = GenerationParams()
    first = render_instruction(GRAPH, COMPILED.placement, CIRCUIT)
    client = ReplayCompletionClient(str(path))
    with pytest.raises(TransportError, match="request digest differs"):
        client.complete(first + "\n", params.max_tokens, params.temperature)
    assert client.complete(first, params.max_tokens, params.temperature).text == OUTPUTS[0]


def test_replay_that_cannot_answer_fails_at_once(tmp_path):
    path = tmp_path / "exchanges.jsonl"
    kept = 2
    recorded = run(RecordingClient(MockCompletionClient(OUTPUTS[:kept]), str(path)))
    # A script cannot grow an answer, so its end fails the run at once.
    assert (recorded[1].outcome, recorded[1].retries) == ("failed", 1)
    assert recorded[1].failure_reason == "transport: mock script exhausted"

    client = ReplayCompletionClient(str(path))
    _, stats = run(client, GenerationParams(temperature=0.5))
    assert (stats.outcome, stats.retries, stats.gates_executed) == ("failed", 1, 0)
    assert stats.failure_reason == (
        "transport: replay mismatch at record 0: request digest differs"
    )
    assert client.cursor == 0

    client = ReplayCompletionClient(str(path))
    schedule, stats = run(client)
    assert (stats.outcome, stats.retries, stats.gates_executed) == ("failed", 1, kept)
    assert stats.failure_reason == "transport: mock script exhausted"
    assert schedule.ops == recorded[0].ops


@pytest.mark.parametrize(
    "record",
    [
        [1, 2],
        {"text": "Execute Gate 1", "token_count": 3},
        {"digest": "d", "token_count": 3},
        {"digest": "d", "text": "Execute Gate 1"},
        {"digest": "d", "text": "Execute Gate 1", "token_count": "3"},
        {"digest": "d", "text": None, "token_count": 3},
        {"digest": "d", "error": "x"},
        {"digest": "d", "text": "Execute Gate 1", "token_count": -7},
    ],
    ids=["list", "no_digest", "no_text", "no_token_count", "string_count", "null_text",
         "no_permanent", "negative_count"],
)
def test_replay_rejects_a_malformed_record_at_load(tmp_path, record):
    path = tmp_path / "exchanges.jsonl"
    good = {"digest": "d", "text": "Execute Gate 1", "token_count": 3}
    path.write_text(f"{json.dumps(good)}\n\n{json.dumps(record)}\n", encoding="utf-8")
    with pytest.raises(TransportError, match="^replay file line 3: "):
        ReplayCompletionClient(str(path))


def test_replay_file_that_is_not_utf8_fails_at_load(tmp_path):
    path = tmp_path / "exchanges.jsonl"
    path.write_bytes(b"\xff\xfe bad")
    with pytest.raises(TransportError, match=f"^{path} is not UTF-8 text: "):
        ReplayCompletionClient(str(path))


ENDPOINT = "http://localhost:1/v1/completions"


class Response:
    """What urlopen returns: a status, a body to read, and a context manager."""

    def __init__(self, body, status=200):
        self.status = status
        self.raw = body if isinstance(body, bytes) else json.dumps(body).encode()

    def read(self):
        return self.raw

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def answering(response):
    """A stand-in for urlopen that returns `response` or raises it."""
    def urlopen(request, timeout):
        if isinstance(response, Exception):
            raise response
        return response
    return urlopen


@pytest.mark.parametrize(
    "body,what",
    [
        ({"choices": ["str"]}, "choices\\[0\\]"),
        ({"choices": [{"message": "str"}]}, "message"),
        ({"choices": [{"message": None}]}, "message"),
        ({"choices": [{"text": "ok"}], "usage": ["str"]}, "usage"),
        ({"choices": [{"text": "ok"}], "usage": 7}, "usage"),
    ],
    ids=["choice_str", "message_str", "message_null", "usage_list", "usage_int"],
)
def test_http_complete_rejects_a_hostile_body(monkeypatch, body, what):
    monkeypatch.setattr(driver, "urlopen", answering(Response(body)))
    with pytest.raises(TransportError, match=f"endpoint response {what} is not an object"):
        driver.HttpCompletionClient(ENDPOINT, "m").complete("prompt", 8, 0.0)


@pytest.mark.parametrize(
    "response,message",
    [
        (URLError(ConnectionRefusedError(111, "Connection refused")),
         "request failed: <urlopen error [Errno 111] Connection refused>"),
        (TimeoutError("timed out"), "request failed: timed out"),
        (HTTPError("http://localhost:1", 503, "Service Unavailable", {}, None),
         "endpoint returned status 503"),
        (Response({"choices": [{"text": "ok"}]}, status=204), "endpoint returned status 204"),
        (Response(b"<html>busy</html>"), "endpoint response is not JSON"),
        (Response(b"\xff\xfe"), "endpoint response is not JSON"),
        (Response(b"[" * 200_000), "endpoint response is not JSON"),
    ],
    ids=["refused", "timeout", "status_503", "status_204", "html", "not_utf8", "deep_nesting"],
)
def test_http_complete_words_each_transport_failure(monkeypatch, response, message):
    monkeypatch.setattr(driver, "urlopen", answering(response))
    with pytest.raises(TransportError) as failure:
        driver.HttpCompletionClient(ENDPOINT, "m").complete("prompt", 8, 0.0)
    assert str(failure.value) == message


@pytest.mark.parametrize(
    "endpoint", ["file:///etc/hostname", "data:text/plain,hello"], ids=["file", "data"]
)
def test_http_complete_refuses_an_endpoint_that_is_not_http(monkeypatch, endpoint):
    def urlopen(request, timeout):
        raise AssertionError(f"requested {request.full_url}")

    monkeypatch.setattr(driver, "urlopen", urlopen)
    with pytest.raises(TransportError) as failure:
        driver.HttpCompletionClient(endpoint, "m").complete("prompt", 8, 0.0)
    assert str(failure.value) == f"endpoint {endpoint!r} is not an http or https URL"


def test_a_refused_endpoint_fails_the_run_at_once(monkeypatch):
    """No retry can turn a file: URL into an HTTP request, so the first refusal ends the run."""
    def urlopen(request, timeout):
        raise AssertionError(f"requested {request.full_url}")

    monkeypatch.setattr(driver, "urlopen", urlopen)
    client = driver.HttpCompletionClient("file:///etc/hostname", "m")
    _, stats = generate_schedule(CIRCUIT, GRAPH, client)
    assert (stats.outcome, stats.retries, stats.gates_executed) == ("failed", 1, 0)
    assert stats.failure_reason == (
        "transport: endpoint 'file:///etc/hostname' is not an http or https URL"
    )


def test_http_complete_posts_the_request_as_json(monkeypatch):
    sent = []

    def urlopen(request, timeout):
        sent.append((request.full_url, request.get_method(), request.headers, timeout))
        sent.append(json.loads(request.data))
        return Response({"choices": [{"text": "a b"}]})

    monkeypatch.setattr(driver, "urlopen", urlopen)
    result = driver.HttpCompletionClient(ENDPOINT, "m", 3.0).complete("prompt", 8, 0.5)
    assert (result.text, result.token_count) == ("a b", 2)
    assert sent == [
        ("http://localhost:1/v1/completions", "POST", {"Content-type": "application/json"}, 3.0),
        {"model": "m", "prompt": "prompt", "max_tokens": 8, "temperature": 0.5},
    ]


def test_http_complete_reads_a_well_formed_body(monkeypatch):
    body = {"choices": [{"message": {"content": "a b c"}}], "usage": {"completion_tokens": 5}}
    monkeypatch.setattr(driver, "urlopen", answering(Response(body)))
    result = driver.HttpCompletionClient(ENDPOINT, "m").complete("prompt", 8, 0.0)
    assert (result.text, result.token_count) == ("a b c", 5)


@pytest.mark.parametrize(
    "reported,counted",
    [(True, 3), (False, 3), (-1, 3), (0, 0)],
    ids=["true", "false", "negative", "zero"],
)
def test_http_complete_estimates_a_count_that_is_not_a_non_negative_integer(
    monkeypatch, tmp_path, reported, counted
):
    """A boolean or negative usage count is estimated, so its recording replays."""
    body = {"choices": [{"text": "a b c"}], "usage": {"completion_tokens": reported}}
    monkeypatch.setattr(driver, "urlopen", answering(Response(body)))
    path = tmp_path / "exchange.jsonl"
    client = RecordingClient(driver.HttpCompletionClient(ENDPOINT, "m"), str(path))
    result = client.complete("prompt", 8, 0.0)
    assert type(result.token_count) is int and result.token_count == counted
    assert ReplayCompletionClient(str(path)).complete("prompt", 8, 0.0) == result


# Every character str.split() splits on below U+0080, \x1c-\x1f included;
# some it splits on above it; and characters it does not split on, NUL and
# a zero-width space among them.
ASCII_SPACES = [chr(c) for c in range(128) if chr(c).isspace()]
WIDE_SPACES = ["\x85", "\xa0", "\u2003", "\u3000"]
ASCII_WORD = ["a", "Z", "0", "-", ">", "[", "\x00", "\x7f"]
WIDE_WORD = ["\u200b", "\xe9"]


@given(
    st.text(st.sampled_from(ASCII_SPACES + ASCII_WORD))
    | st.text(st.sampled_from(ASCII_SPACES + WIDE_SPACES + ASCII_WORD + WIDE_WORD))
)
def test_word_count_is_the_length_of_split(text):
    """On ASCII text, which word_count maps byte by byte, and on any other."""
    assert word_count(text) == len(text.split())


# (tokens_total, tokens_final) of each replay-long driver run at workload
# seed 1, as `python tools/prompt_digest.py --seed 1` prints them.
LONG_RUN_TOKENS = {
    "schedule_d200.txt": (209115, 192081),
    "schedule_d400.txt": (391302, 362689),
}


def test_the_long_schedule_runs_report_their_pinned_token_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import MODULES, ReplayLong

    lib = SimpleNamespace(**{name: importlib.import_module(f"shuttlekit.{name}") for name in MODULES})
    workload = ReplayLong()
    workload.setup(lib, 1)
    counted = {}
    for name, text, graph, circuit, plan in workload.files:
        slices = decompose(lib.schedule.parse_schedule(text, graph, circuit))
        outputs = [render_output(piece, graph, piece.circuit) for piece in slices]
        script, _ = workload._script(outputs, plan, slices)
        _, stats = generate_schedule(circuit, graph, MockCompletionClient(script))
        assert stats.outcome == "complete"
        counted[name] = (stats.tokens_total, stats.tokens_final)
    assert counted == LONG_RUN_TOKENS
