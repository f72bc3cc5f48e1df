"""Set-associative cache with descriptor-driven insertion classes.

Lines carry an insertion priority (normal < soft pin < hard pin). The
victim is the lowest-priority line, LRU among equals. Hard-pinned sets get
thrash protection: once every way in a set is pinned at the highest
priority, way 0 becomes the sacrificial way, so ways 1..N-1 stay resident.
Pins fade: an ``access`` or ``fill`` whose cycle has reached the next
multiple of ``pin_reset_period`` first resets every resident line to normal.

Each set is a dict, line number (addr // line_size) -> priority, least
recently used first, so the victim is its first line of the lowest
priority. A set gets its dict at its first fill, which records the line in
way 0; a line taking a victim's place takes its way.

Misses allocate MSHR entries; a second miss to an in-flight line reports
INFLIGHT_HIT instead of re-requesting. The owner calls ``fill`` when the
miss data returns, and passes cycles that never decrease.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .descriptor import log2_exact
from .errors import MshrFull


class InsertionClass(Enum):
    BYPASS = "BYPASS"
    NORMAL = "NORMAL"
    SOFT_PIN = "SOFT_PIN"
    HARD_PIN = "HARD_PIN"

    __hash__ = object.__hash__  # members are singletons; Enum's hashes the name in Python


_PRIORITY = {  # BYPASS: installs no line, touches none
    InsertionClass.BYPASS: -1,
    InsertionClass.NORMAL: 0,
    InsertionClass.SOFT_PIN: 1,
    InsertionClass.HARD_PIN: 2,
}
_MAX_PRIORITY = _PRIORITY[InsertionClass.HARD_PIN]

_NO_LINES: dict[int, int] = {}  # every unfilled set's dict; never written


class AccessOutcome(Enum):
    HIT = "HIT"
    INFLIGHT_HIT = "INFLIGHT_HIT"
    MISS = "MISS"


@dataclass(frozen=True)
class CacheConfig:
    capacity: int
    ways: int
    line_size: int = 128
    mshr_entries: int = 32
    pin_reset_period: int = 100_000

    def __post_init__(self) -> None:
        log2_exact(self.line_size)
        least = {"capacity": 1, "ways": 1, "mshr_entries": 1, "pin_reset_period": 0}
        for name in least:
            if getattr(self, name) < least[name]:
                raise ValueError(f"{name} {getattr(self, name)} is below the minimum {least[name]}")
        if self.capacity % (self.line_size * self.ways) != 0:
            raise ValueError(
                f"capacity {self.capacity} not divisible by "
                f"line_size*ways = {self.line_size * self.ways}"
            )

    @property
    def num_sets(self) -> int:
        return self.capacity // (self.line_size * self.ways)


class CacheModel:
    """One cache instance, driven by a single simulation context."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.line_size = config.line_size
        self.num_sets = config.num_sets
        # sets[i]: set i's lines, least recently used first, with their
        # priorities; way0[i]: the line in way 0 of set i, once it is filled.
        self.sets: list[dict[int, int]] = [_NO_LINES] * self.num_sets
        self.way0: dict[int, int] = {}
        self.mshr: dict[int, InsertionClass] = {}
        # The first pin-reset boundary not yet applied; a period of 0 never resets.
        self._next_reset = config.pin_reset_period or math.inf

    def line_addr(self, addr: int) -> int:
        return addr - addr % self.line_size

    def contains(self, addr: int) -> bool:
        line = addr // self.line_size
        return line in self.sets[line % self.num_sets]

    def inflight(self, addr: int) -> bool:
        return addr // self.line_size in self.mshr

    def access(self, addr: int, iclass: InsertionClass, cycle: int) -> AccessOutcome:
        """Look up one address; on a primary miss, allocate an MSHR entry.

        BYPASS accesses probe the array but never disturb residency, LRU
        state or priorities. Raises MshrFull when a primary miss finds no
        free entry; the caller retries the access on a later cycle.
        """
        if cycle >= self._next_reset:
            self._reset_pins(cycle)
        line = addr // self.line_size
        ways = self.sets[line % self.num_sets]
        held = ways.get(line)
        if held is not None:
            priority = _PRIORITY[iclass]
            if priority >= 0:
                del ways[line]  # re-inserted as the most recently used
                ways[line] = held if held > priority else priority
            return AccessOutcome.HIT
        if line in self.mshr:
            return AccessOutcome.INFLIGHT_HIT
        if len(self.mshr) >= self.config.mshr_entries:
            raise MshrFull(f"no MSHR entry for line {line:#x}")
        self.mshr[line] = iclass
        return AccessOutcome.MISS

    def fill(self, addr: int, cycle: int) -> None:
        """Complete an outstanding miss and install the line (unless bypassed).

        A set with a free way takes the line in its next way; a full set
        evicts its victim, which hands over its way.
        """
        if cycle >= self._next_reset:
            self._reset_pins(cycle)
        line = addr // self.line_size
        priority = _PRIORITY[self.mshr.pop(line)]
        if priority < 0:
            return
        set_idx = line % self.num_sets
        ways = self.sets[set_idx]
        if not ways:
            ways = self.sets[set_idx] = {}
            self.way0[set_idx] = line
        elif len(ways) == self.config.ways:
            low = _MAX_PRIORITY + 1
            for held, p in ways.items():
                if p < low:
                    victim, low = held, p
                    if not p:
                        break
            if low == _MAX_PRIORITY:  # every way hard pinned
                victim = self.way0[set_idx]
            del ways[victim]
            if victim == self.way0[set_idx]:
                self.way0[set_idx] = line
        ways[line] = priority

    def _reset_pins(self, cycle: int) -> None:
        """Unpin every resident line; the next boundary is the first after ``cycle``."""
        period = self.config.pin_reset_period
        self._next_reset = (cycle // period + 1) * period
        for set_idx in self.way0:
            self.sets[set_idx] = dict.fromkeys(self.sets[set_idx], 0)
