"""Print one sha256 over what dataset.parse_output makes of seeded mutants of model outputs.

The outputs are the render_output texts of every slice of the two pinned
long schedules, perfbench/inputs/schedule_d200.txt and schedule_d400.txt.
Each output gets `--mutants` seeded mutants of one to three edits each.
An edit inserts a token of ALPHABET at a random offset, at the start of a
random line or into a random op line, or puts it in place of a random line
break or character.
ALPHABET holds every line break `str.splitlines` cuts at, some characters
it does not cut at but `str.strip` drops, the three leading characters
that hide a line from the parser, and the reasoning tags the parser drops.
The digest covers one line per mutant: its ops as `format_op` lines, or
the OutputParseError text with its line number, so it changes when the
parser reads any mutant differently. Stdout holds the digest alone; stderr
gets the mutant count and how many of them parsed.

    python tools/parse_digest.py
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from shuttlekit.circuit import parse_circuit  # noqa: E402
from shuttlekit.dataset import parse_output, render_output  # noqa: E402
from shuttlekit.errors import OutputParseError  # noqa: E402
from shuttlekit.ops import format_op  # noqa: E402
from shuttlekit.schedule import decompose, parse_schedule, schedule_paths  # noqa: E402
from shuttlekit.trap import parse_trap  # noqa: E402

INPUTS = ROOT / "perfbench" / "inputs"
SCHEDULES = ("schedule_d200.txt", "schedule_d400.txt")

BREAKS = ("\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
ALPHABET = BREAKS + ("\n", "\x1f", "\xa0", " ", "\t", "-", "<think>", "</think>")
OP_WORDS = ("Translate", "Separate", "Merge", "Swap", "Execute")


def outputs():
    """Every render_output text of the pinned schedules, schedule by schedule."""
    for name in SCHEDULES:
        text = (INPUTS / name).read_text(encoding="utf-8")
        trap_path, circuit_path = schedule_paths(text)
        graph = parse_trap((INPUTS / trap_path).read_text(encoding="utf-8"))
        circuit = parse_circuit((INPUTS / circuit_path).read_text(encoding="utf-8"))
        for piece in decompose(parse_schedule(text, graph, circuit)):
            yield render_output(piece, graph, piece.circuit)


def mutate(text: str, rng: random.Random) -> str:
    """`text` after one to three edits, each with a token of ALPHABET."""
    for _ in range(rng.randint(1, 3)):
        token = rng.choice(ALPHABET)
        kind = rng.randrange(5)
        breaks = [i for i, char in enumerate(text) if char == "\n"]
        starts = [0] + [i + 1 for i in breaks]
        if kind == 3 and breaks or kind == 4 and text:
            # in place of a line break, or of any character
            at = rng.choice(breaks if kind == 3 else range(len(text)))
            text = text[:at] + token + text[at + 1 :]
            continue
        if kind == 1:
            at = rng.choice(starts)
        elif kind == 2:
            # into an op line: at its start, or after any of its characters
            at = rng.choice([s for s in starts if text.startswith(OP_WORDS, s)] or starts)
            end = text.find("\n", at)
            at += rng.randrange((len(text) if end < 0 else end) - at + 1)
        else:
            at = rng.randrange(len(text) + 1)
        text = text[:at] + token + text[at:]
    return text


def result(text: str) -> str:
    """What parse_output makes of `text`: its op lines, or its error text."""
    try:
        return "ops " + "|".join(format_op(op) for op in parse_output(text))
    except OutputParseError as exc:
        return f"error {exc}"


def parse_digest(seed: int, per_output: int) -> tuple[str, int, int]:
    """The sha256 of one result line per mutant, the mutant count and how many parsed."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    count = parsed = 0
    for output in outputs():
        for _ in range(per_output):
            line = result(mutate(output, rng))
            digest.update(line.encode() + b"\n")
            count += 1
            parsed += line.startswith("ops ")
    return digest.hexdigest(), count, parsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="mutation seed")
    parser.add_argument("--mutants", type=int, default=4, help="mutants per output")
    args = parser.parse_args(argv)
    digest, count, parsed = parse_digest(args.seed, args.mutants)
    print(f"{count} mutants, {parsed} parsed", file=sys.stderr)
    print(digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
