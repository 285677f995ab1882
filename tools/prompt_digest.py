"""Print one sha256 over every prompt and target text of the replay-long driver run.

Builds the replay-long workload of the benchmark (perfbench/workloads.py,
imported read-only) for a workload seed: both pinned long schedules, their
expected outputs, and the scripted completions with the injected faults.
For each schedule file, in order, the digest covers every render_output
text, one per slice, and then every instruction generate_schedule sends to
the scripted client, retries included, so it changes when any rendered
prompt or target of that run does. Stdout holds the digest alone; stderr
gets one line per file with its slice, instruction and retry counts, the
run's outcome, and its tokens_total and tokens_final as the scripted
client counts them. Its last two lines total the work of the whole run:
the first layers computed, "frontier work: N first-layer computations",
and the render work, the kernel.successors calls, "render work: N
kernel.successors calls". A change that renders the same text with
different work moves those lines and not the digest.

    python tools/prompt_digest.py --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import ReplayLong, load_package  # noqa: E402


def prompt_digest(seed: int) -> str:
    lib = load_package()
    workload = ReplayLong()
    workload.setup(lib, seed)
    digest = hashlib.sha256()
    calls = layers = 0
    successors = lib.kernel.successors
    frontier = lib.circuit._Frontier
    scan = frontier._scan_first_layer

    def counted(*args):
        nonlocal calls
        calls += 1
        return successors(*args)

    def counted_scan(*args):
        nonlocal layers
        layers += 1
        return scan(*args)

    lib.kernel.successors = counted
    frontier._scan_first_layer = counted_scan
    for name, text, graph, circuit, plan in workload.files:
        schedule = lib.schedule.parse_schedule(text, graph, circuit)
        slices = lib.schedule.decompose(schedule)
        outputs = [lib.dataset.render_output(s, graph, s.circuit) for s in slices]
        script, faults = workload._script(outputs, plan, slices)
        client = lib.driver.MockCompletionClient(script)
        _, stats = lib.driver.generate_schedule(circuit, graph, client)
        print(
            f"{name}: {len(slices)} slices, {len(client.calls)} instructions, "
            f"{stats.retries} retries for {faults} faults, {stats.outcome}, "
            f"tokens_total {stats.tokens_total}, tokens_final {stats.tokens_final}",
            file=sys.stderr,
            flush=True,
        )
        for rendered in outputs + client.calls:
            digest.update(rendered.encode())
            digest.update(b"\0")
    print(f"frontier work: {layers} first-layer computations", file=sys.stderr)
    print(f"render work: {calls} kernel.successors calls", file=sys.stderr)
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="replay-long workload seed")
    args = parser.parse_args(argv)
    print(prompt_digest(args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
