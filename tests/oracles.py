"""Reference implementations that tests compare the simulator against."""

import json
from typing import NoReturn, TextIO

from ldesc_sim import AccessOutcome, CacheConfig, InsertionClass
from ldesc_sim.engine import AccessEvent
from ldesc_sim.errors import ConfigError, MshrFull
from ldesc_sim.grid import cta_flat, unflatten_xyz
from ldesc_sim.sched import majority_zone

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


# The box and schedule code as it stood before one box enumerator and one
# zone round-robin loop replaced it, kept verbatim except that each schedule
# returns its assignment dict and ``ClusterDims.count_in`` is ``_count_in``.


def ctas_in_ctile(ctile, desc, grid):
    """CTA coordinates inside a C-tile, clipped to the grid, X->Y->Z order."""
    c = desc.tiles.ctile_dims
    base = tuple(ctile[i] * c[i] for i in range(3))
    ext = tuple(min(c[i], grid.dims[i] - base[i]) for i in range(3))
    out = []
    for z in range(ext[2]):
        for y in range(ext[1]):
            for x in range(ext[0]):
                out.append((base[0] + x, base[1] + y, base[2] + z))
    return out


def _count_in(cls, grid):
    g, d = grid.dims, cls.dims
    return (-(-g[0] // d[0]), -(-g[1] // d[1]), -(-g[2] // d[2]))


def _cluster_members(cluster, cls, grid):
    base = tuple(cluster[i] * cls.dims[i] for i in range(3))
    ext = tuple(min(cls.dims[i], grid.dims[i] - base[i]) for i in range(3))
    members = []
    for z in range(ext[2]):
        for y in range(ext[1]):
            for x in range(ext[0]):
                members.append(
                    cta_flat((base[0] + x, base[1] + y, base[2] + z), grid)
                )
    return members


def assign_clusters(cls, grid, sm_num):
    """Round-robin whole clusters (X->Y->Z order) over the SMs."""
    counts = _count_in(cls, grid)
    assignment: dict[int, int] = {}
    for k in range(counts[0] * counts[1] * counts[2]):
        cluster = unflatten_xyz(k, counts)
        sm = k % sm_num
        for cta in _cluster_members(cluster, cls, grid):
            assignment[cta] = sm
    return assignment


def assign_clusters_by_zone(cls, grid, cta_zones, sm_count, zone_count):
    sm_per_zone = sm_count // zone_count
    counts = _count_in(cls, grid)
    next_slot = [0] * zone_count
    assignment: dict[int, int] = {}
    for k in range(counts[0] * counts[1] * counts[2]):
        members = _cluster_members(unflatten_xyz(k, counts), cls, grid)
        zone = majority_zone(members, cta_zones, zone_count)
        sm = zone * sm_per_zone + next_slot[zone] % sm_per_zone
        next_slot[zone] += 1
        for cta in members:
            assignment[cta] = sm
    return assignment


def distributed_schedule(grid, zone_count, sm_count):
    """Split the flat CTA order into zone_count equal contiguous ranges and
    round-robin each range over its zone's SMs."""
    span = -(-grid.total_ctas // zone_count)
    sm_per_zone = sm_count // zone_count
    next_slot = [0] * zone_count
    zones: dict[int, int] = {}
    assignment: dict[int, int] = {}
    for flat in range(grid.total_ctas):
        zone = zones[flat] = min(flat // span, zone_count - 1)
        assignment[flat] = zone * sm_per_zone + next_slot[zone] % sm_per_zone
        next_slot[zone] += 1
    return assignment


def _slice(items, index, parts):
    width = -(-len(items) // parts) if items else 0
    return items[index * width : (index + 1) * width]


def nearby_window(lines, rank, members):
    """The lines a NEARBY CTA of C-tile rank ``rank`` walks, before dealing."""
    window = _slice(lines, rank, members)
    if not window:
        return []
    lo = max(0, lines.index(window[0]) - 1)
    hi = min(len(lines), lines.index(window[-1]) + 2)
    return lines[lo:hi]


# The trace loader as it stood when every line went through json.loads,
# kept verbatim as the oracle for the loader's fast path.
def load_trace(fp: TextIO) -> list[AccessEvent]:
    """Parse a JSONL demand trace; a malformed line, or one with a negative
    ``sm``, ``cta``, ``warp`` or ``cycle``, raises ConfigError naming it."""
    name = getattr(fp, "name", "trace")
    events = []
    for n, line in enumerate(fp, 1):
        try:
            raw = json.loads(line)
            sm, cta, warp, cycle = raw["sm"], raw["cta"], raw["warp"], raw["cycle"]
            addr = int(raw["addr"], 16)
        except (ValueError, TypeError, KeyError):
            if line.strip():
                _reject_trace_line(line, f"{name}:{n}")
            continue
        # An OR of integers is negative exactly when one of them is.
        if not (type(sm) is type(cta) is type(warp) is type(cycle) is int
                and (sm | cta | warp | cycle) >= 0):
            _reject_trace_line(line, f"{name}:{n}")
        events.append(AccessEvent._make((sm, cta, warp, addr, cycle)))
    return events


def _reject_trace_line(line: str, where: str) -> NoReturn:
    """Raise the ConfigError that names what is wrong with a trace line."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    for key in ("sm", "cta", "warp", "addr", "cycle"):
        if key not in raw:
            raise ConfigError(f"{where}: missing key {key!r}")
        if key == "addr":
            continue
        if type(raw[key]) is not int:
            raise ConfigError(f"{where}: {key} {raw[key]!r} is not an integer")
        if raw[key] < 0:
            raise ConfigError(f"{where}: {key} {raw[key]} is negative")
    # every other check passed, so the addr is what failed to parse
    raise ConfigError(f"{where}: addr {raw['addr']!r} is not a hex string")
