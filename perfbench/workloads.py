"""The benchmark's workloads: set-up, one timed pass, and the output checks.

Each workload takes the package from `load_package`, builds its inputs from
the workload seed in `setup`, and runs one pass of its timed body in
`run_pass`. A pass returns a `PassResult`; `summarize` turns the passes of
one run into the workload's metrics, each a (value, unit) pair, and the
outputs worth recording. Checks that fail count toward the run's `failed`
units and are listed by message, never raised.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import re
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
WORK = HERE / "_work"

MODULES = (
    "baseline", "circuit", "cli", "dataset", "driver", "errors",
    "kernel", "ops", "schedule", "state", "trap",
)


def load_package() -> SimpleNamespace:
    """Import shuttlekit afresh, so each call pays the package's import cost."""
    for name in [n for n in sys.modules if n == "shuttlekit" or n.startswith("shuttlekit.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"shuttlekit.{name}") for name in MODULES}
    )


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(message)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _same_every_pass(passes: list[PassResult], key: str) -> None:
    first = passes[0].data[key]
    for later in passes[1:]:
        later.check(later.data[key] == first, f"{key} differs between passes")


# -- compile-grid --------------------------------------------------------------

DEPTH = 6
CIRCUITS_PER_CELL = 10

# Seeded cells: CIRCUITS_PER_CELL circuits each, drawn from the workload
# seed. ORACLE_MAX_VERTICES is 9, so the first three take the exact-search
# path and linear(5) the greedy one. Each compiles in well under a second
# and its cost varies little between circuits, which keeps the spread
# between seeds small.
GRID = (
    ("ring q4", lambda trap: trap.build_eval_layout("ring", 4), 4),
    ("linear(4) q4", lambda trap: trap.build_linear(4), 4),
    ("ring q5", lambda trap: trap.build_eval_layout("ring", 5), 5),
    ("linear(5) q5", lambda trap: trap.build_linear(5), 5),
)

# Pinned cells: one fixed circuit each, the same for every workload seed.
# The first four are the heavy searches (1-2 s each), whose cost varies
# three-fold between circuits, so a seeded draw of them would dominate the
# spread between seeds; they use circuit seed 0. The last two fail with
# CompileError today: the slow branched failure of the router and the
# instant linear(1) failure that no one has shown to be infeasible.
PINNED = (
    ("multi_linear q6", lambda trap: trap.build_eval_layout("multi_linear", 6), 6, 0),
    ("linear(6) q6", lambda trap: trap.build_linear(6), 6, 0),
    ("four_way q8", lambda trap: trap.build_eval_layout("four_way", 8), 8, 0),
    ("branched(6,2,2) q6", lambda trap: trap.build_branched(6, 2, 2), 6, 0),
    ("branched(6,2,2) q6", lambda trap: trap.build_branched(6, 2, 2), 6, 1),
    ("linear(1) q3", lambda trap: trap.build_linear(1), 3, 0),
)


class CompileGrid:
    name = "compile-grid"

    def setup(self, lib: SimpleNamespace, seed: int) -> None:
        self.lib = lib
        self.cases = []
        for label, build, qubits in GRID:
            graph = build(lib.trap)
            for k in range(CIRCUITS_PER_CELL):
                circuit_seed = 1000 * seed + k
                circuit = lib.baseline.random_circuit(qubits, DEPTH, circuit_seed)
                self.cases.append((f"{label} circuit {circuit_seed}", graph, circuit))
        for label, build, qubits, circuit_seed in PINNED:
            circuit = lib.baseline.random_circuit(qubits, DEPTH, circuit_seed)
            self.cases.append((f"{label} circuit {circuit_seed}", build(lib.trap), circuit))

    def run_pass(self, tracer=None) -> PassResult:
        baseline, schedule = self.lib.baseline, self.lib.schedule
        compile_error = self.lib.errors.CompileError
        case_s, outcomes, ops = [], [], 0
        result = PassResult(0.0, len(self.cases))
        start = perf_counter()
        for label, graph, circuit in self.cases:
            case_start = perf_counter()
            try:
                compiled = baseline.compile(circuit, graph)
            except compile_error:
                compiled = None
            case_s.append(perf_counter() - case_start)
            if compiled is None:
                outcomes.append((label, "CompileError"))
                continue
            report = schedule.validate(compiled)
            result.check(report.ok, f"{label}: compiled schedule is invalid: {report.reason}")
            outcomes.append((label, len(compiled.ops)))
            ops += len(compiled.ops)
        result.wall_s = perf_counter() - start
        errors = sum(1 for _, outcome in outcomes if outcome == "CompileError")
        result.data = {
            "case_s": case_s,
            "outcomes": outcomes,
            "schedule_ops": ops,
            "compile_errors": errors,
        }
        return result

    def summarize(self, passes: list[PassResult]) -> tuple[dict, dict]:
        _same_every_pass(passes, "outcomes")
        first = passes[0].data
        metrics = {
            "schedule_ops": (first["schedule_ops"], "count"),
            "case_p50_s": (statistics.median(s for p in passes for s in p.data["case_s"]), "s"),
            "fail_ratio": (first["compile_errors"] / len(self.cases), "ratio"),
        }
        return metrics, {"outcomes": first["outcomes"]}


# -- dataset-gen ----------------------------------------------------------------

_OP_LINE = re.compile(r"^(Translate|Separate|Merge|Swap|Execute Gate) ", re.MULTILINE)


class DatasetGen:
    name = "dataset-gen"

    def setup(self, lib: SimpleNamespace, seed: int) -> None:
        self.lib = lib
        self.out_dir = WORK / "dataset"
        self.argv = ["gen-dataset", "--seed", str(seed), "--out-dir", str(self.out_dir)]
        # The gate total the JSONL must match, from the command's own
        # defaults and its per-circuit seeding rule.
        args = lib.cli.build_parser().parse_args(self.argv)
        low, _, high = args.qubits.partition("-")
        per_qubit = args.train_per_qubit + args.eval_per_qubit
        self.schedules = 0
        self.gates = 0
        for qubits in range(int(low), int(high or low) + 1):
            for i in range(per_qubit):
                circuit = lib.baseline.random_circuit(qubits, args.depth, seed + 1000 * qubits + i)
                self.gates += len(circuit.gates)
                self.schedules += 1

    def run_pass(self, tracer=None) -> PassResult:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.lib.cli.main(self.argv)
        result = PassResult(perf_counter() - start, self.schedules)
        result.check(code == 0, f"gen-dataset exited with {code}: {err.getvalue().strip()}")
        skipped = sum(1 for line in err.getvalue().splitlines() if line.startswith("skipped "))
        entries = ops = 0
        digests = {}
        for split in ("train", "eval"):
            path = self.out_dir / f"{split}.jsonl"
            if not path.exists():
                result.check(False, f"{path.name} was not written")
                continue
            digests[f"{split}.jsonl"] = _sha256(path)
            with path.open(encoding="utf-8") as handle:
                for line in handle:
                    entries += 1
                    ops += len(_OP_LINE.findall(json.loads(line)["output"]))
        result.check(
            entries == self.gates,
            f"{entries} JSONL lines for {self.gates} gates",
        )
        result.data = {
            "entries": entries,
            "schedule_ops": ops,
            "failed_schedules": self.schedules if code != 0 else skipped,
            "sha256": digests,
        }
        return result

    def summarize(self, passes: list[PassResult]) -> tuple[dict, dict]:
        for key in ("entries", "schedule_ops", "sha256"):
            _same_every_pass(passes, key)
        first = passes[0].data
        wall = statistics.median(p.wall_s for p in passes)
        metrics = {
            "schedule_ops": (first["schedule_ops"], "count"),
            "entries_per_s": (first["entries"] / wall, "1/s"),
            "fail_ratio": (first["failed_schedules"] / self.schedules, "ratio"),
        }
        return metrics, {"sha256": first["sha256"]}


# -- replay-long -----------------------------------------------------------------

FAULT_SHARE = 0.10
PAD_SHARE = 0.10
REPLAY_FILES = ("schedule_d200.txt", "schedule_d400.txt")


def verify_inputs() -> None:
    """Refuse to run unless every pinned input matches SHA256SUMS."""
    sums = (INPUTS / "SHA256SUMS").read_text(encoding="utf-8").split("\n")
    for line in filter(None, sums):
        digest, name = line.split(maxsplit=1)
        path = INPUTS / name
        if not path.is_file() or _sha256(path) != digest:
            raise SystemExit(f"pinned input {name} does not match perfbench/inputs/SHA256SUMS")


class ReplayLong:
    name = "replay-long"

    def setup(self, lib: SimpleNamespace, seed: int) -> None:
        verify_inputs()
        self.lib = lib
        rng = random.Random(seed)
        self.files = []
        for name in REPLAY_FILES:
            text = (INPUTS / name).read_text(encoding="utf-8")
            trap_name, circuit_name = lib.schedule.schedule_paths(text)
            graph = lib.trap.parse_trap((INPUTS / trap_name).read_text(encoding="utf-8"))
            circuit = lib.circuit.parse_circuit((INPUTS / circuit_name).read_text(encoding="utf-8"))
            plan = self._plan(rng, text, graph)
            self.files.append((name, text, graph, circuit, plan))
        # Both files share one trap. A Translate between two non-adjacent
        # vertices of it is illegal in any state.
        n, edges = len(graph.vertices), graph.edges
        a, b = next((a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges)
        self.illegal_line = lib.ops.format_op(lib.ops.Translate(a, b))

    def _plan(self, rng: random.Random, text: str, graph) -> list:
        """Per slice: None, a fault to send before the real output, or a padding.

        A fault is ("parse", i) or ("illegal", i), a bad line before op i, or
        ("no_execute", i), the output without its Execute Gate line. A
        padding ("pad", j) follows op j, a Translate between two storage
        vertices, with the pair that walks it back and forth once more.
        """
        ops_mod = self.lib.ops
        slices, current = [], []
        for line in text.splitlines():
            if _OP_LINE.match(line):
                current.append(ops_mod.parse_op(line))
                if isinstance(current[-1], ops_mod.ExecuteGate):
                    slices.append(current)
                    current = []
        plan = []
        for ops in slices:
            draw = rng.random()
            if draw < FAULT_SHARE:
                kind = rng.choice(("parse", "illegal", "no_execute"))
                plan.append((kind, rng.randrange(len(ops))))
                continue
            pads = [
                j for j, op in enumerate(ops)
                if isinstance(op, ops_mod.Translate)
                and not graph.is_junction(op.src) and not graph.is_junction(op.dst)
            ]
            if draw < FAULT_SHARE + PAD_SHARE and pads:
                plan.append(("pad", rng.choice(pads)))
            else:
                plan.append(None)
        return plan

    def _script(self, outputs: list[str], plan: list, slices) -> tuple[list[str], int]:
        format_op, translate = self.lib.ops.format_op, self.lib.ops.Translate
        script, faults = [], 0
        for output, step, piece in zip(outputs, plan, slices):
            if step is None:
                script.append(output)
                continue
            kind, index = step
            blocks = output.rstrip("\n").split("\n\n")
            if kind == "pad":
                op = piece.ops[index]
                pair = [format_op(translate(op.dst, op.src)), format_op(op)]
                script.append("\n\n".join(blocks[: index + 1] + pair + blocks[index + 1:]) + "\n")
                continue
            faults += 1
            if kind == "no_execute":
                bad = blocks[:-1]
            else:
                line = "Translate ? -> ?" if kind == "parse" else self.illegal_line
                bad = blocks[:index] + [line] + blocks[index:]
            script.extend(("\n\n".join(bad) + "\n", output))
        return script, faults

    def run_pass(self, tracer=None) -> PassResult:
        lib = self.lib
        result = PassResult(0.0, len(self.files))
        per_file = []
        start = perf_counter()
        validate = tracer.spans["schedule.validate"] if tracer else None
        for name, text, graph, circuit, plan in self.files:
            validate_before = validate.total_s if validate else 0.0
            t0 = perf_counter()
            schedule = lib.schedule.parse_schedule(text, graph, circuit, replay=True)
            t1 = perf_counter()
            validate_s = validate.total_s - validate_before if validate else 0.0
            slices = lib.schedule.decompose(schedule)
            outputs = [lib.dataset.render_output(s, graph, s.circuit) for s in slices]
            script, faults = self._script(outputs, plan, slices)
            client = lib.driver.MockCompletionClient(script)
            t2 = perf_counter()
            produced, stats = lib.driver.generate_schedule(circuit, graph, client)
            t3 = perf_counter()
            per_file.append({
                "file": name,
                "gates": len(circuit.gates),
                "parse_s": t1 - t0,
                "traced_validate_s": validate_s,
                "generate_s": t3 - t2,
                "attempts": client.cursor,
                "retries": stats.retries,
                "ops": len(produced.ops),
            })
            concatenated = tuple(op for piece in slices for op in piece.ops)
            result.check(
                concatenated == schedule.ops and len(slices) == len(circuit.gates)
                and produced.ops == schedule.ops and produced.placement == schedule.placement
                and stats.outcome == "complete" and stats.retries == faults
                and client.cursor == len(script),
                f"{name}: replay did not reproduce the schedule "
                f"({stats.outcome}, {stats.retries} retries for {faults} faults, "
                f"{len(produced.ops)} of {len(schedule.ops)} ops)",
            )
        result.wall_s = perf_counter() - start
        result.data = {"files": per_file, "schedule_ops": sum(f["ops"] for f in per_file)}
        return result

    def summarize(self, passes: list[PassResult]) -> tuple[dict, dict]:
        _same_every_pass(passes, "schedule_ops")
        files = [f for p in passes for f in p.data["files"]]
        longest = max(self.files, key=lambda f: len(f[3].gates))[0]
        failed = max(p.failed for p in passes)
        metrics = {
            "schedule_ops": (passes[0].data["schedule_ops"], "count"),
            "validate_s": (statistics.median(f["parse_s"] for f in files if f["file"] == longest), "s"),
            "llm_attempts_per_s": (
                sum(f["attempts"] for f in files) / sum(f["generate_s"] for f in files),
                "1/s",
            ),
            "fail_ratio": (failed / len(self.files), "ratio"),
        }
        return metrics, {"files": passes[-1].data["files"]}


WORKLOADS = {w.name: w for w in (CompileGrid, DatasetGen, ReplayLong)}
