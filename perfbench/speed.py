"""Machine-speed probe: seconds of work, corrected for a drifting machine.

On a shared two-core host the speed of one core swings by up to half
within seconds and stays fast or slow for up to a minute; the same pass of
the same workload took 16 s in one run and 24 s in another. A `SpeedProbe`
times a fixed pure-Python reference loop, which calls nothing of
shuttlekit, at the start and end of a timed span and every SAMPLE_EVERY_S
seconds inside it, from a SIGALRM handler in the main thread (no threads).
`normalize(raw_s)` scales seconds measured in the span by REFERENCE_S over
the interquartile mean of the samples: the span's seconds on a machine
where the reference loop takes REFERENCE_S. The samples' own time, about
1% of a span, stays in it.

A change that slows shuttlekit lengthens the span and leaves the reference
loop alone, so it shows in full. Only the machine's drift is divided out.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.001
SAMPLE_EVERY_S = 0.1
_REFERENCE_KEYS = 3000


def reference_work() -> int:
    table: dict[tuple[int, int], int] = {}
    for i in range(_REFERENCE_KEYS):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + 1
    return len(table)


class SpeedProbe:
    """Context manager sampling the reference loop around and inside a span."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        start = perf_counter()
        reference_work()
        self.samples.append(perf_counter() - start)

    def __enter__(self) -> SpeedProbe:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def normalize(self, raw_s: float) -> float:
        """raw_s, measured inside the span, in seconds at the reference speed."""
        ordered = sorted(self.samples)
        quarter = len(ordered) // 4
        typical = statistics.fmean(ordered[quarter : len(ordered) - quarter])
        return raw_s * REFERENCE_S / typical
