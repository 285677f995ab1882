"""Print one sha256 over every compile-grid outcome for a workload seed.

Builds the compile-grid cases of the benchmark (perfbench/workloads.py,
imported read-only) and compiles each one. The digest covers every
compiled op list and every CompileError text, in case order, so it
changes when any schedule or failure message of the grid does. Stdout
holds the digest alone; stderr gets one line per case, its label and then
its op count or CompileError text, so a changed digest can be traced to
the cases that moved. Its last line totals the search work, summed over
what every kernel.route_search call returns: "search work: S searches,
E expansions, T stored states". A change that finds the same routes with
different search work moves that line and not the digest.

    python tools/grid_digest.py --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import CompileGrid, load_package  # noqa: E402


def grid_digest(seed: int) -> str:
    lib = load_package()
    grid = CompileGrid()
    grid.setup(lib, seed)
    digest = hashlib.sha256()
    work = [0, 0, 0]
    route_search = lib.kernel.route_search

    def counted(*args, **kwargs):
        result = route_search(*args, **kwargs)
        work[0] += 1
        work[1] += result[2]
        work[2] += result[3]
        return result

    lib.kernel.route_search = counted
    for label, graph, circuit in grid.cases:
        try:
            ops = lib.baseline.compile(circuit, graph).ops
            text = "\n".join(map(lib.ops.format_op, ops))
            outcome = f"{len(ops)} ops"
        except lib.errors.CompileError as exc:
            text = outcome = f"CompileError: {exc}"
        print(f"{label}: {outcome}", file=sys.stderr, flush=True)
        digest.update(f"{label}\n{text}\n\n".encode())
    print(
        f"search work: {work[0]} searches, {work[1]} expansions, {work[2]} stored states",
        file=sys.stderr,
    )
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="compile-grid workload seed")
    args = parser.parse_args(argv)
    print(grid_digest(args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
