"""Reference implementations that tests compare the simulator against."""

from ldesc_sim import AccessOutcome, CacheConfig, InsertionClass
from ldesc_sim.errors import MshrFull

# The reference: the cache as it stood when every way of every set was built
# up front as an invalid line, kept verbatim (only renamed) as the oracle.
_PRIORITY = {
    InsertionClass.NORMAL: 0,
    InsertionClass.SOFT_PIN: 1,
    InsertionClass.HARD_PIN: 2,
}
_MAX_PRIORITY = _PRIORITY[InsertionClass.HARD_PIN]


class _OracleLine:
    __slots__ = ("tag", "valid", "priority", "last_used")

    def __init__(self) -> None:
        self.tag = 0
        self.valid = False
        self.priority = 0
        self.last_used = 0


class OracleCache:
    """One cache instance, driven by a single simulation context."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.sets = [
            [_OracleLine() for _ in range(config.ways)] for _ in range(config.num_sets)
        ]
        self.mshr: dict[int, InsertionClass] = {}
        self._use_clock = 0

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.config.line_size
        return line % self.config.num_sets, line // self.config.num_sets

    def line_addr(self, addr: int) -> int:
        return addr - addr % self.config.line_size

    def contains(self, addr: int) -> bool:
        set_idx, tag = self._locate(addr)
        return any(l.valid and l.tag == tag for l in self.sets[set_idx])

    def inflight(self, addr: int) -> bool:
        return addr // self.config.line_size in self.mshr

    def access(self, addr: int, iclass: InsertionClass, cycle: int) -> AccessOutcome:
        """Look up one address; on a primary miss, allocate an MSHR entry.

        BYPASS accesses probe the array but never disturb residency, LRU
        state or priorities. Raises MshrFull when a primary miss finds no
        free entry; the caller retries the access on a later cycle.
        """
        set_idx, tag = self._locate(addr)
        for way in self.sets[set_idx]:
            if way.valid and way.tag == tag:
                if iclass is not InsertionClass.BYPASS:
                    self._use_clock += 1
                    way.last_used = self._use_clock
                    way.priority = max(way.priority, _PRIORITY[iclass])
                return AccessOutcome.HIT
        line = addr // self.config.line_size
        if line in self.mshr:
            return AccessOutcome.INFLIGHT_HIT
        if len(self.mshr) >= self.config.mshr_entries:
            raise MshrFull(f"no MSHR entry for line {line:#x}")
        self.mshr[line] = iclass
        return AccessOutcome.MISS

    def fill(self, addr: int, cycle: int) -> None:
        """Complete an outstanding miss and install the line (unless bypassed)."""
        line = addr // self.config.line_size
        iclass = self.mshr.pop(line)
        if iclass is InsertionClass.BYPASS:
            return
        set_idx = line % self.config.num_sets
        ways = self.sets[set_idx]
        victim = None
        for way in ways:
            if not way.valid:
                victim = way
                break
        if victim is None:
            if all(w.priority == _MAX_PRIORITY for w in ways):
                victim = ways[0]
            else:
                victim = min(ways, key=lambda w: (w.priority, w.last_used))
        self._use_clock += 1
        victim.valid = True
        victim.tag = line // self.config.num_sets
        victim.priority = _PRIORITY[iclass]
        victim.last_used = self._use_clock

    def tick(self, cycle: int) -> None:
        """Advance the pin-reset timer; on each period boundary unpin everything."""
        period = self.config.pin_reset_period
        if period > 0 and cycle > 0 and cycle % period == 0:
            for ways in self.sets:
                for way in ways:
                    way.priority = _PRIORITY[InsertionClass.NORMAL]
