"""Machine-speed calibration for the end-to-end metrics (see README.md, "Noise").

On a shared host the speed of interpreted code drifts with the load of
other tenants: for minutes at a time one run of the simulator can take 1.5x
as long as the same run a minute earlier. A fixed pure-Python loop, timed
in short chunks just before and just after each timed operation, slows
down at the same moments and by about as much. So each operation's time
is scaled by REF_S / (mean of those chunk times): the result reads as
seconds on the reference machine, where one chunk takes REF_S, and the
host's drift cancels out.

The loop is the benchmark's own and never calls the simulator, so a change
to the simulator moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# About the fastest time of one chunk on the reference machine (Intel Xeon, 2 vCPUs,
# Python 3.11.7). A constant, so scaled times compare across runs.
REF_S = 0.00031
CHUNK_ACCESSES = 400
CHUNKS_PER_SAMPLE = 2


class _Line:
    __slots__ = ("tag", "last_use")

    def __init__(self, tag: int, last_use: int):
        self.tag = tag
        self.last_use = last_use


def chunk(accesses: int = CHUNK_ACCESSES) -> int:
    """A small set-associative cache walk: dict lookups, attribute updates
    and evictions, the kind of work the simulator's cycle loop does."""
    sets: list[dict[int, _Line]] = [{} for _ in range(16)]
    hits = 0
    for i in range(accesses):
        addr = (i * 2654435761) & 0x3FFF
        ways = sets[(addr >> 7) & 15]
        tag = addr >> 11
        line = ways.get(tag)
        if line is None:
            if len(ways) >= 4:
                del ways[min(ways.values(), key=lambda x: x.last_use).tag]
            ways[tag] = _Line(tag, i)
        else:
            line.last_use = i
            hits += 1
    return hits


class Calibration:
    """Chunk times sampled between timed sections of a run."""

    def __init__(self) -> None:
        chunk()  # first-call costs are not sampled
        self.times: list[float] = []
        self.last = self._sample()

    def _sample(self) -> float:
        """Time CHUNKS_PER_SAMPLE chunks; return their mean."""
        for _ in range(CHUNKS_PER_SAMPLE):
            t0 = perf_counter()
            chunk()
            self.times.append(perf_counter() - t0)
        return statistics.fmean(self.times[-CHUNKS_PER_SAMPLE:])

    def resample(self) -> None:
        """Sample again after untimed work, so the next section is scaled
        by the host's speed just before it."""
        self.last = self._sample()

    def factor(self) -> float:
        """Reference seconds per host second for the section timed since the
        last sample: REF_S over the mean chunk time just before and just
        after it."""
        before, self.last = self.last, self._sample()
        return REF_S / ((before + self.last) / 2)
