"""Print one sha256 over the rejection text of every op probed on a fixed set of states.

The states are seeded random walks from the initial placement of random
circuits, plus arbitrary states (partial placements, random junction
locks, circuits partly executed), on the traps of tests/test_ops.py
WALK_TRAPS and two more: a capacity-3 path, where merging two 2-chains
exceeds capacity, and a path whose degree-1 end vertex allows Separate and
Merge but has no lateral pair. On each state, each op of test_ops.every_op
and test_ops.beyond_the_trap, a Translate for every ordered vertex pair and
an Execute Gate of an unknown gate id goes through ops.violation. The
digest covers one `format_op(op)|reason` line per probe, reason `None` for
a legal op, so it changes when any rejection text changes, or whether an
op is legal at all. Stdout holds the digest alone; stderr gets the probe
count.

    python tools/rejection_digest.py
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from shuttlekit import ops, trap  # noqa: E402
from shuttlekit.baseline import random_circuit  # noqa: E402
from shuttlekit.state import TrapState, initial_placement  # noqa: E402
from test_ops import WALK_TRAPS, beyond_the_trap, every_op  # noqa: E402

#   0 - [1] - 2, where storage vertex 0 allows Separate and Merge.
END_SITE = trap.TrapGraph(
    {
        0: trap.Vertex(0, trap.VertexKind.STORAGE, frozenset({"separate", "merge"})),
        1: trap.Vertex(1, trap.VertexKind.GATE, frozenset(trap.ELIGIBILITY_FLAGS)),
        2: trap.Vertex(2, trap.VertexKind.STORAGE),
    },
    frozenset({(0, 1), (1, 2)}),
)

PROBE_TRAPS = WALK_TRAPS + [(trap.build_linear(2, capacity=3), 4), (END_SITE, 2)]


def arbitrary_state(graph, qubits, rng):
    """Some of the qubits in random chains of up to capacity, and random junction locks."""
    placed = rng.sample(range(qubits), rng.randint(0, qubits))
    vertices = rng.sample(graph.vertex_ids, len(graph.vertex_ids))
    chains = {}
    while placed and vertices:
        size = rng.randint(1, min(graph.capacity, len(placed)))
        chains[vertices.pop()] = tuple(placed[:size])
        placed = placed[size:]
    locks = {
        v: rng.choice((-1, *graph.neighbors(v))) for v in graph.vertex_ids if graph.is_junction(v)
    }
    return TrapState.from_dicts(graph, chains, locks)


def probe_lines(walks: int, steps: int, arbitrary: int):
    """One `format_op(op)|reason` line per probe, trap by trap and seed by seed."""
    for graph, qubits in PROBE_TRAPS:
        n = len(graph.vertices)
        pairs = [ops.Translate(a, b) for a in range(n) for b in range(n)]

        def probes(state, circuit):
            unknown = ops.ExecuteGate(len(circuit.gates) + 1)
            for op in every_op(graph, circuit) + beyond_the_trap(n) + pairs + [unknown]:
                yield f"{ops.format_op(op)}|{ops.violation(state, graph, circuit, op)}"

        for seed in range(walks):
            rng = random.Random(seed)
            circuit = random_circuit(qubits, 4, seed)
            state = initial_placement(circuit, graph)
            for _ in range(steps):
                yield from probes(state, circuit)
                listed = ops.allowed_ops(state, graph, circuit)
                if not listed:
                    break
                op = rng.choice(listed)
                state = ops.apply(state, graph, circuit, op)
                if isinstance(op, ops.ExecuteGate):
                    circuit = circuit.mark_executed(op.a)
            for _ in range(arbitrary):
                circuit = random_circuit(qubits, 4, seed)
                for _ in range(rng.randint(0, len(circuit.gates))):
                    circuit = circuit.mark_executed(rng.choice(circuit.first_layer).id)
                yield from probes(arbitrary_state(graph, qubits, rng), circuit)


def rejection_digest(walks: int, steps: int, arbitrary: int) -> tuple[str, int]:
    """The sha256 of the probe lines, and their count."""
    digest = hashlib.sha256()
    count = 0
    for line in probe_lines(walks, steps, arbitrary):
        digest.update(line.encode() + b"\n")
        count += 1
    return digest.hexdigest(), count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--walks", type=int, default=8, help="random walks per trap")
    parser.add_argument("--steps", type=int, default=80, help="states per random walk")
    parser.add_argument("--arbitrary", type=int, default=60, help="arbitrary states per walk")
    args = parser.parse_args(argv)
    digest, count = rejection_digest(args.walks, args.steps, args.arbitrary)
    print(f"{count} probes", file=sys.stderr)
    print(digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
