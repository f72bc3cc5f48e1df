"""Set-associative cache with descriptor-driven insertion classes.

Lines carry an insertion priority (normal < soft pin < hard pin). The
victim is the lowest-priority line, LRU among equals. Hard-pinned sets get
thrash protection: once every way in a set is pinned at the highest
priority, way 0 becomes the sacrificial way, so ways 1..N-1 stay resident.
Pins fade: an ``access`` or ``fill`` whose cycle has reached the next
multiple of ``pin_reset_period`` first resets every resident line to normal.

A line exists only once it has been filled: every set starts empty and
takes lines in way order until it is full. One dict per cache indexes the
resident lines by line number, so a lookup never scans a set.

Misses allocate MSHR entries; a second miss to an in-flight line reports
INFLIGHT_HIT instead of re-requesting. The owner calls ``fill`` when the
miss data returns, and passes cycles that never decrease.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from .descriptor import log2_exact
from .errors import MshrFull


class InsertionClass(Enum):
    BYPASS = "BYPASS"
    NORMAL = "NORMAL"
    SOFT_PIN = "SOFT_PIN"
    HARD_PIN = "HARD_PIN"


_PRIORITY = {
    InsertionClass.NORMAL: 0,
    InsertionClass.SOFT_PIN: 1,
    InsertionClass.HARD_PIN: 2,
}
_MAX_PRIORITY = _PRIORITY[InsertionClass.HARD_PIN]


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


class _Line:
    """One filled way. Its fields are set by the fill that creates it."""

    __slots__ = ("tag", "priority", "last_used")


_victim_key = attrgetter("priority", "last_used")


class CacheModel:
    """One cache instance, driven by a single simulation context."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.line_size = config.line_size
        self.num_sets = config.num_sets
        # sets[i]: the filled lines of set i in way order; lines[n]: the
        # resident line with line number n (addr // line_size).
        self.sets: list[list[_Line]] = [[] for _ in range(self.num_sets)]
        self.lines: dict[int, _Line] = {}
        self.mshr: dict[int, InsertionClass] = {}
        self._use_clock = 0
        # The first pin-reset boundary not yet applied; a period of 0 never resets.
        self._next_reset = config.pin_reset_period or math.inf

    def line_addr(self, addr: int) -> int:
        return addr - addr % self.line_size

    def contains(self, addr: int) -> bool:
        return addr // self.line_size in self.lines

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
        way = self.lines.get(line)
        if way is not None:
            if iclass is not InsertionClass.BYPASS:
                self._use_clock += 1
                way.last_used = self._use_clock
                way.priority = max(way.priority, _PRIORITY[iclass])
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
        iclass = self.mshr.pop(line)
        if iclass is InsertionClass.BYPASS:
            return
        set_idx = line % self.num_sets
        ways = self.sets[set_idx]
        if len(ways) < self.config.ways:
            victim = _Line()
            ways.append(victim)
        else:
            # The lowest priority is the highest one only when every way is
            # hard pinned; then way 0 is the sacrificial way.
            victim = min(ways, key=_victim_key)
            if victim.priority == _MAX_PRIORITY:
                victim = ways[0]
            del self.lines[victim.tag * self.num_sets + set_idx]
        self._use_clock += 1
        victim.tag = line // self.num_sets
        victim.priority = _PRIORITY[iclass]
        victim.last_used = self._use_clock
        self.lines[line] = victim

    def _reset_pins(self, cycle: int) -> None:
        """Unpin every resident line; the next boundary is the first after ``cycle``."""
        period = self.config.pin_reset_period
        self._next_reset = (cycle // period + 1) * period
        for way in self.lines.values():
            way.priority = _PRIORITY[InsertionClass.NORMAL]
