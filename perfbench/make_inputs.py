"""Regenerate the pinned replay-long inputs and their SHA256SUMS.

Run from the repository root:

    python3 perfbench/make_inputs.py

It writes the trap build_linear(4), the circuits random_circuit(4, 200, 7)
and random_circuit(4, 400, 7), and the schedules baseline.compile made for
them, into perfbench/inputs/. The benchmark never calls this script: it
reads the checked-in files and refuses to run when one of them no longer
matches SHA256SUMS. Rerunning it with a changed compiler gives different
schedules, which is a change of the benchmark, not of the program.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
sys.path.insert(0, str(HERE.parent / "src"))

from shuttlekit import baseline, schedule, trap  # noqa: E402
from shuttlekit.circuit import serialize_circuit  # noqa: E402

TRAP_FILE = "linear4.json"
STORAGE_PER_SIDE = 4
QUBITS = 4
CIRCUIT_SEED = 7
DEPTHS = (200, 400)


def main() -> int:
    INPUTS.mkdir(exist_ok=True)
    graph = trap.build_linear(STORAGE_PER_SIDE)
    files = {TRAP_FILE: trap.serialize_trap(graph)}
    for depth in DEPTHS:
        circuit = baseline.random_circuit(QUBITS, depth, CIRCUIT_SEED)
        compiled = baseline.compile(circuit, graph)
        report = schedule.validate(compiled)
        if not report.ok:
            raise SystemExit(f"depth {depth}: compiled schedule is invalid: {report.reason}")
        circuit_file = f"circuit_d{depth}.qasm"
        files[circuit_file] = serialize_circuit(circuit)
        files[f"schedule_d{depth}.txt"] = schedule.serialize_schedule(
            compiled, TRAP_FILE, circuit_file
        )
        print(f"depth {depth}: {len(circuit.gates)} gates, {len(compiled.ops)} ops")
    sums = []
    for name, text in sorted(files.items()):
        data = text.encode("utf-8")
        (INPUTS / name).write_bytes(data)
        sums.append(f"{hashlib.sha256(data).hexdigest()}  {name}\n")
    (INPUTS / "SHA256SUMS").write_text("".join(sums), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
