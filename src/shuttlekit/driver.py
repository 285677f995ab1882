"""Generate–validate–retry loop against a completion server, plus clients.

`generate_schedule` builds one schedule gate by gate; it relies on the
render memo (see the dataset module docstring) and on replay's kept ops
(see schedule.replay). Clients share one small interface so the loop runs
unchanged against HTTP, a scripted mock, or a recorded replay file. Every
client answers requests in order and none is rewound, so a recording,
failed requests included, replays exactly.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from http.client import HTTPException
from typing import Callable, Protocol, Sequence
from urllib.error import HTTPError
from urllib.parse import urlsplit
from urllib.request import Request, urlopen

from .circuit import Circuit
from .dataset import parse_output, render_instruction
from .errors import (
    OutputParseError,
    PermanentTransportError,
    PlacementError,
    ReplayMismatchError,
    ScheduleValidationError,
    ShuttleError,
    TransportError,
)
from .schedule import Schedule, replay
from .state import initial_placement
from .trap import TrapGraph

DEFAULT_MAX_TOKENS = 29_000
DEFAULT_MAX_CONSECUTIVE_INVALID = 10
DEFAULT_BUDGET_SECONDS = 8 * 3600.0


@dataclass(frozen=True)
class CompletionResult:
    text: str
    token_count: int


class CompletionClient(Protocol):
    def complete(self, instruction: str, max_tokens: int, temperature: float) -> CompletionResult:
        ...


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.7
    max_tokens: int = DEFAULT_MAX_TOKENS
    max_consecutive_invalid: int = DEFAULT_MAX_CONSECUTIVE_INVALID
    budget_seconds: float = DEFAULT_BUDGET_SECONDS


@dataclass(frozen=True)
class GenerationStats:
    """Accounting for one generation run.

    tokens_final counts only accepted outputs; tokens_total counts every
    attempt, so tokens_total - tokens_final is the retry overhead.
    """

    outcome: str  # "complete" or "failed"
    gates_executed: int
    ops_count: int
    retries: int
    tokens_final: int
    tokens_total: int
    wall_seconds: float
    failure_reason: str | None = None


def request_digest(instruction: str, max_tokens: int, temperature: float) -> str:
    """Stable key for record/replay matching; model name deliberately excluded."""
    payload = f"{temperature:.6f}|{max_tokens}|{instruction}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def read_text(path: str, error=ShuttleError) -> str:
    """A UTF-8 text file's contents.

    Bytes that do not decode, or a path `open` refuses as a value (one with
    a NUL byte), raise `error` naming the path.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:
        raise error(f"cannot open {path!r}: {exc}") from exc


def read_json_objects(path: str, label: str, error=ShuttleError) -> list[tuple[int, dict]]:
    """A JSONL file's (line number, object) pairs, blank lines skipped.

    A line that is not a JSON object raises `error`, naming `label` and the
    line; a file that is not UTF-8 raises it naming the file.
    """
    objects = []
    for lineno, line in enumerate(read_text(path, error).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            value = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
            raise error(f"{label} line {lineno}: {exc}") from exc
        if not isinstance(value, dict):
            raise error(f"{label} line {lineno}: not a JSON object")
        objects.append((lineno, value))
    return objects


# Each byte whose character str.split() splits on (\x1c-\x1f included) as
# b" ", every other byte as b"x".
_WORD_BYTES = bytes(32 if chr(b).isspace() else 120 for b in range(256))


def word_count(text: str) -> int:
    """len(text.split()), counted without building the list of words.

    An ASCII text is mapped to spaces and x's by `_WORD_BYTES`; a word
    starts at every " x" and at an "x" in front. Other text is split.
    """
    if not text.isascii():
        return len(text.split())
    marks = text.encode().translate(_WORD_BYTES)
    return marks.count(b" x") + marks.startswith(b"x")


def _response_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TransportError(f"endpoint response {what} is not an object")
    return value


@dataclass
class HttpCompletionClient:
    """One completion request per call against an OpenAI-compatible endpoint.

    Reads choices[0].text (or .message.content) and usage.completion_tokens,
    estimated by `word_count` unless the server reports a non-negative
    integer (not a boolean). A body of any other shape raises
    TransportError; a non-HTTP(S) endpoint raises PermanentTransportError
    before any request.
    """

    endpoint: str
    model: str
    timeout: float = 600.0

    def complete(self, instruction: str, max_tokens: int, temperature: float) -> CompletionResult:
        endpoint, model = self.endpoint, self.model
        if urlsplit(endpoint).scheme not in ("http", "https"):
            raise PermanentTransportError(f"endpoint {endpoint!r} is not an http or https URL")
        data = json.dumps(
            dict(model=model, prompt=instruction, max_tokens=max_tokens, temperature=temperature)
        ).encode()
        try:
            request = Request(endpoint, data, {"Content-Type": "application/json"})
            with urlopen(request, timeout=self.timeout) as response:
                status, raw = response.status, response.read()
        except HTTPError as exc:
            status, raw = exc.code, b""
        except (OSError, ValueError, HTTPException) as exc:
            raise TransportError(f"request failed: {exc}") from exc
        if status != 200:
            raise TransportError(f"endpoint returned status {status}")
        try:
            body = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise TransportError("endpoint response is not JSON") from exc
        try:
            choice = body["choices"][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError("endpoint response has no choices") from exc
        choice = _response_object(choice, "choices[0]")
        text = choice.get("text")
        if text is None:
            text = _response_object(choice.get("message", {}), "message").get("content")
        if not isinstance(text, str):
            raise TransportError("endpoint response carries no completion text")
        usage = _response_object(body.get("usage") or {}, "usage")
        tokens = usage.get("completion_tokens")
        if type(tokens) is not int or tokens < 0:
            tokens = word_count(text)
        return CompletionResult(text, tokens)


class MockCompletionClient:
    """Scripted client: returns canned responses in order, each counting its `word_count`.

    A request after the last response raises ReplayMismatchError.
    """

    def __init__(self, script: Sequence[str]) -> None:
        self.script = list(script)
        self.cursor = 0
        self.calls: list[str] = []

    def complete(self, instruction: str, max_tokens: int, temperature: float) -> CompletionResult:
        if self.cursor >= len(self.script):
            raise ReplayMismatchError("mock script exhausted")
        text = self.script[self.cursor]
        self.cursor += 1
        self.calls.append(instruction)
        return CompletionResult(text, word_count(text))


class RecordingClient:
    """Pass-through wrapper appending every request's outcome to a JSONL file.

    A TransportError is recorded as {"digest", "error", "permanent"} and re-raised.
    """

    def __init__(self, inner: CompletionClient, path: str) -> None:
        self.inner = inner
        self.path = path

    def _append(self, record: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")

    def complete(self, instruction: str, max_tokens: int, temperature: float) -> CompletionResult:
        digest = request_digest(instruction, max_tokens, temperature)
        try:
            result = self.inner.complete(instruction, max_tokens, temperature)
        except TransportError as exc:
            permanent = isinstance(exc, PermanentTransportError)
            self._append({"digest": digest, "error": str(exc), "permanent": permanent})
            raise
        self._append({"digest": digest, "text": result.text, "token_count": result.token_count})
        return result


class ReplayCompletionClient:
    """Replays a recorded exchange file in order, verifying request digests.

    A record holds a string `digest` and either a string `text` and a
    non-negative integer `token_count`, or a string `error` and a boolean
    `permanent`, which replays as PermanentTransportError or TransportError
    with that text; any other record raises TransportError at load. A
    request whose digest differs from the next record's, or that comes
    after the last record, raises ReplayMismatchError.
    """

    def __init__(self, path: str) -> None:
        self.records = []
        for lineno, record in read_json_objects(path, "replay file", TransportError):
            if "error" in record:
                fields, kinds = ("digest", "error", "permanent"), (str, str, bool)
            else:
                fields, kinds = ("digest", "text", "token_count"), (str, str, int)
            malformed = tuple(type(record.get(field)) for field in fields) != kinds
            if malformed or ("error" not in record and record["token_count"] < 0):
                raise TransportError(
                    f"replay file line {lineno}: a record needs a string digest and "
                    "either a string text and a non-negative integer token_count, "
                    "or a string error and a boolean permanent"
                )
            self.records.append(record)
        self.cursor = 0

    def complete(self, instruction: str, max_tokens: int, temperature: float) -> CompletionResult:
        if self.cursor >= len(self.records):
            raise ReplayMismatchError("replay file exhausted")
        record = self.records[self.cursor]
        expected = request_digest(instruction, max_tokens, temperature)
        if record["digest"] != expected:
            raise ReplayMismatchError(
                f"replay mismatch at record {self.cursor}: request digest differs"
            )
        self.cursor += 1
        if "error" in record:
            error = PermanentTransportError if record["permanent"] else TransportError
            raise error(record["error"])
        return CompletionResult(record["text"], record["token_count"])


def generate_schedule(
    circuit: Circuit,
    graph: TrapGraph,
    client: CompletionClient,
    params: GenerationParams = GenerationParams(),
    clock: Callable[[], float] = time.monotonic,
) -> tuple[Schedule, GenerationStats]:
    """Build a schedule one gate execution at a time via the client.

    Each step renders the instruction for the current state once, through
    the graph's render memo, and accepts a response only if it parses and
    `replay` steps each op legally from that state; the slice that executes
    the last gate must also leave a schedule `validate` accepts. The run
    keeps replay's kept ops of the slice and continues from where replay
    ended. A rejected attempt (TransportError, or output that does not
    parse or replay) counts one retry and resubmits the identical string.
    The `max_consecutive_invalid`-th rejection in a row, a
    PermanentTransportError or the time budget ends the run "failed", with
    a partial schedule and a reason: `time budget exhausted`, `transport:
    ...` or `N consecutive invalid outputs for one instruction; last: ...`.
    """
    placement = initial_placement(circuit, graph)
    state = placement
    current = circuit
    instruction = None
    all_ops = []
    retries = tokens_final = tokens_total = 0
    consecutive = 0
    reason = None
    start = clock()
    while not current.is_complete:
        if clock() - start > params.budget_seconds:
            reason = "time budget exhausted"
            break
        if instruction is None:
            instruction = render_instruction(graph, state, current)
        try:
            result = client.complete(instruction, params.max_tokens, params.temperature)
            tokens_total += result.token_count
            report, _, ops, reached = replay(graph, state, current, parse_output(result.text))
            if report.final_state is None or (reached.is_complete and not report.ok):
                raise ScheduleValidationError(report)
        except (TransportError, OutputParseError, ScheduleValidationError) as exc:
            retries += 1
            consecutive += 1
            permanent = isinstance(exc, PermanentTransportError)
            if permanent or consecutive >= params.max_consecutive_invalid:
                reason = f"transport: {exc}" if isinstance(exc, TransportError) else (
                    f"{consecutive} consecutive invalid outputs for one instruction; last: {exc}"
                )
                break
            continue
        # Cancelled pairs are state identities, so the kept ops end in the
        # state the replay ended in.
        state, current, instruction = report.final_state, reached, None
        all_ops.extend(ops)
        tokens_final += result.token_count
        consecutive = 0
    stats = GenerationStats(
        outcome="complete" if reason is None else "failed",
        gates_executed=current.executed_count,
        ops_count=len(all_ops),
        retries=retries,
        tokens_final=tokens_final,
        tokens_total=tokens_total,
        wall_seconds=clock() - start,
        failure_reason=reason,
    )
    return Schedule(graph, circuit, placement, tuple(all_ops)), stats


def run_benchmark(
    circuits: Sequence[tuple[str, Circuit]],
    graphs: Sequence[tuple[str, TrapGraph]],
    client: CompletionClient,
    runs: int,
    params: GenerationParams = GenerationParams(),
    clock: Callable[[], float] = time.monotonic,
) -> list[dict]:
    """Best-of-n generation for every (circuit, trap) cell, one client for all.

    A circuit that cannot be placed on a trap fails that cell once, before
    any request. A cell with no complete run reports "failed (n)" where n
    is the most gates any run executed.
    """
    rows: list[dict] = []
    for circuit_label, circuit in circuits:
        for graph_label, graph in graphs:
            try:
                results = [
                    generate_schedule(circuit, graph, client, params, clock)[1]
                    for _ in range(runs)
                ]
            except PlacementError as exc:
                results = [GenerationStats("failed", 0, 0, 0, 0, 0, 0.0, failure_reason=str(exc))]
            complete = [s for s in results if s.outcome == "complete"]
            if complete:
                best = min(complete, key=lambda s: s.ops_count)
                result_text = str(best.ops_count)
            else:
                best = max(results, key=lambda s: s.gates_executed)
                result_text = f"failed ({best.gates_executed})"
            rows.append(
                {
                    "circuit": circuit_label,
                    "trap": graph_label,
                    "temperature": params.temperature,
                    "runs": runs,
                    "completed": len(complete),
                    "result": result_text,
                    "ops": best.ops_count,
                    "gates_executed": best.gates_executed,
                    "retries": best.retries,
                    "tokens_final": best.tokens_final,
                    "tokens_total": best.tokens_total,
                }
            )
    return rows


def format_benchmark_rows(rows: Sequence[dict]) -> str:
    """Aligned text table over the benchmark row dicts."""
    if not rows:
        return "(no rows)\n"
    columns = list(rows[0])
    widths = {
        c: max(len(c), *(len(str(row.get(c, ""))) for row in rows)) for c in columns
    }
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    ruler = "  ".join("-" * widths[c] for c in columns)
    lines = [header, ruler]
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines) + "\n"
