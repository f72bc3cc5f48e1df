"""Reference implementations that tests compare the simulator against."""

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, NoReturn, TextIO

from ldesc_sim import (
    AccessOutcome,
    CacheConfig,
    InsertionClass,
    LocalityDescriptor,
    PrefetchKind,
)
from ldesc_sim import numa, sched
from ldesc_sim.descriptor import PAGE_BITS, LocalityType, SharingType, ctile_count, dtile_count
from ldesc_sim.engine import AccessEvent, Workload, _Cta, _Row, _Simulation, _Sm
from ldesc_sim.errors import ConfigError, LdescError, MshrFull
from ldesc_sim.grid import TileIndex, unflatten_xyz
from ldesc_sim.numa import MappingScheme
from ldesc_sim.sched import majority_zone

# Tile arithmetic per CTA and per address, a data structure's bounds and the
# per-SM working set of a trace. No run needs them: runs read tile tables
# and the engine's own line sets, which tests check against these.


def flatten_xyz(coords, counts):
    x, y, z = coords
    return x + counts[0] * (y + counts[1] * z)


def cta_flat(cta, grid):
    """X->Y->Z flat index of a CTA in the grid."""
    return flatten_xyz(cta, grid.dims)


def ctile_of_cta(cta, desc, grid):
    """C-tile containing a CTA: componentwise floor division by the C-tile dims."""
    c = desc.tiles.ctile_dims
    coords = (cta[0] // c[0], cta[1] // c[1], cta[2] // c[2])
    return TileIndex(coords, flatten_xyz(coords, ctile_count(desc, grid)))


def contains(ds, addr):
    """Whether a byte address lies inside a data structure."""
    return ds.base_addr <= addr < ds.end_addr


def dtile_of_address(addr, desc):
    """D-tile containing a byte address of the descriptor's structure."""
    ds = desc.data
    assert contains(ds, addr), f"address {addr:#x} outside {ds.name}"
    elem = (addr - ds.base_addr) // ds.elem_size
    lenx, leny, _ = ds.dims
    ex = elem % lenx
    ey = (elem // lenx) % leny
    ez = elem // (lenx * leny)
    d = desc.tiles.dtile_dims
    coords = (ex // d[0], ey // d[1], ez // d[2])
    return TileIndex(coords, flatten_xyz(coords, dtile_count(desc)))


def total_in(cls, grid):
    """How many clusters of shape ``cls`` the grid holds."""
    return math.prod(_count_in(cls, grid))


def working_set(events: Iterable[AccessEvent], line_size: int = 128) -> dict[int, int]:
    """Distinct-line count per SM over a demand trace."""
    per_sm: dict[int, set[int]] = {}
    for ev in events:
        per_sm.setdefault(ev.sm, set()).add(ev.addr // line_size)
    return {sm: len(lines) for sm, lines in per_sm.items()}


# Zone resolution as it stood when the engine worked each access's home
# zone out from its row's mapping: ``zone_of_address`` with its first-touch
# page-table lookup, and the engine's ``_home_zone``, kept verbatim except
# that ``_home_zone`` takes the zone count that it read from the system.
class UnplacedPage(LdescError):
    """First-touch lookup for a page no CTA has accessed yet."""


def zone_of_address(addr, mapping, zone_count):
    """Resolve a byte address to its NUMA zone under a mapping."""
    if zone_count == 1:
        return 0
    if mapping.scheme is MappingScheme.BITRANGE:
        return (addr >> mapping.low_bit) % zone_count
    if mapping.scheme is MappingScheme.XOR_HASH:
        n = mapping.num_bits
        return ((addr >> 7) ^ (addr >> (7 + n)) ^ (addr >> (7 + 2 * n))) % zone_count
    page = addr >> PAGE_BITS
    try:
        return mapping.page_table[page]
    except KeyError:
        raise UnplacedPage(f"page {page:#x} has never been touched") from None


def home_zone(addr, mapping, toucher_zone, zone_count):
    if mapping is None:
        return 0
    if mapping.scheme is MappingScheme.FIRST_TOUCH:
        return mapping.page_table.setdefault(addr >> PAGE_BITS, toucher_zone)
    return zone_of_address(addr, mapping, zone_count)


# The placement search's zone-byte count as it stood when it read each
# D-tile's byte runs, kept verbatim (only renamed): the reference for the
# count from D-tile geometry, ``numa._zone_bytes_of_dtile``.
def zone_bytes_of_runs(runs, low_bit: int, zone_count: int) -> list[int]:
    """Bytes the runs place in each zone, without walking their stripes.

    Stripe k (``1 << low_bit`` bytes) lives in zone k % zone_count, so the
    layout repeats every ``period`` bytes. The bytes of [0, x) in zone z are
    x // period * stripe + clamp(x % period - z * stripe, 0, stripe), and a
    run adds that at its end minus that at its start. Summed over every run
    end (+) and start (-), a zone gets a stripe for each whole period, a
    stripe for each offset whose stripe lies above it, and the bytes of the
    offsets inside its own stripe.
    """
    stripe = 1 << low_bit
    period = zone_count << low_bit
    mask = stripe - 1
    periods = 0
    offsets = [0] * zone_count  # signed count of offsets in each stripe
    partial = [0] * zone_count  # their signed bytes into that stripe
    for run in runs:
        start = run.start
        end = start + run.length
        periods += end // period - start // period
        k = (end >> low_bit) % zone_count
        offsets[k] += 1
        partial[k] += end & mask
        k = (start >> low_bit) % zone_count
        offsets[k] -= 1
        partial[k] -= start & mask
    out = [0] * zone_count
    above = 0
    for zone in reversed(range(zone_count)):
        out[zone] = (periods + above) * stripe + partial[zone]
        above += offsets[zone]
    return out


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


# Policy composition as it stood when each descriptor's policy also said
# whether it wanted clusters and a table of booleans named each policy's
# levers: ``select_policies``, ``build_policies`` and ``compose`` kept
# verbatim, except that the schedule and placement builders are reached
# through their modules. Tests check ``config.compose`` against it.


@dataclass(frozen=True)
class DescriptorPolicy:
    schedule_with_clusters: bool
    insertion: InsertionClass
    prefetch: PrefetchKind


@dataclass
class PolicySet:
    per_desc: tuple[DescriptorPolicy, ...]

    def wants_clusters(self) -> bool:
        return any(p.schedule_with_clusters for p in self.per_desc)


POLICY_LEVERS = {
    "rr": (False, False, False),
    "bcs": (False, False, False),
    "ldesc": (True, True, True),
    "ldesc-sched": (True, False, False),
    "ldesc-cache": (False, True, False),
    "ldesc-pref": (False, False, True),
}


def select_policies(descs) -> PolicySet:
    """Map each descriptor's locality type to its architectural levers.

    Inter-thread data is soft pinned and scheduled in clusters, with stride
    prefetch for regular co-access and nextline for nearby sharing.
    Intra-thread data is hard pinned against thrash; no-reuse data bypasses
    the cache. Conflicts between overlapping descriptors resolve by
    priority at access time.
    """
    out: list[DescriptorPolicy] = []
    for d in descs:
        if d.ltype is LocalityType.INTER_THREAD:
            if d.sharing is SharingType.NEARBY:
                kind = PrefetchKind.NEXTLINE
            elif d.pattern.regular:
                kind = PrefetchKind.STRIDE
            else:
                kind = PrefetchKind.NONE
            out.append(DescriptorPolicy(True, InsertionClass.SOFT_PIN, kind))
        elif d.ltype is LocalityType.INTRA_THREAD:
            out.append(DescriptorPolicy(False, InsertionClass.HARD_PIN, PrefetchKind.NONE))
        else:
            out.append(DescriptorPolicy(False, InsertionClass.BYPASS, PrefetchKind.NONE))
    return PolicySet(tuple(out))


def build_policies(name, descs) -> PolicySet:
    """Cache/prefetch policy set for a named configuration."""
    try:
        clusters, insertion, prefetch = POLICY_LEVERS[name]
    except KeyError:
        raise ConfigError(f"unknown policy {name!r}") from None
    return PolicySet(
        tuple(
            DescriptorPolicy(
                clusters and p.schedule_with_clusters,
                p.insertion if insertion else InsertionClass.NORMAL,
                p.prefetch if prefetch else PrefetchKind.NONE,
            )
            for p in select_policies(descs).per_desc
        )
    )


def compose(cfg):
    """Build (workload, policies, schedule, placement) for one experiment.

    The placement comes first, then the schedule: paired CTAs for ``bcs``,
    round-robin when no descriptor asks for clusters, clusters kept next to
    their data under a placement plan, plain clusters otherwise.
    """
    policies = build_policies(cfg.policy, cfg.descs)
    workload = Workload(cfg.grid, cfg.descs, cfg.seed)
    grid, sms, zones = cfg.grid, cfg.system.sm_count, cfg.system.zone_count
    if zones == 1:
        placement = None
    elif cfg.placement == "ldesc":
        placement = numa.place_and_partition(cfg.descs, grid, zones)
    elif cfg.placement == "xor":
        placement = numa.xor_hash(zones)
    else:
        # first_touch prescribes its own distributed contiguous schedule;
        # pages are placed in-simulation at the zone of their first toucher.
        return workload, policies, numa.distributed_schedule(grid, zones, sms), numa.first_touch(zones)

    if cfg.policy == "bcs":
        schedule = sched.baseline_bcs(grid, sms)
    elif not policies.wants_clusters():
        schedule = sched.baseline_round_robin(grid, sms)
    elif isinstance(placement, numa.NumaPlan):
        cls = sched.form_clusters(cfg.descs, grid, sms // zones)
        schedule = sched.assign_clusters_by_zone(cls, grid, placement.cta_partition, sms, zones)
    else:
        schedule = sched.assign_clusters(sched.form_clusters(cfg.descs, grid, sms), grid, sms)
    return workload, policies, schedule, placement


# The stride prefetcher's stream tracking as it stood when each SM built a
# ``StreamState`` per prefetching row, with a ``DtileGeometry`` of its own,
# and ``on_miss`` added the missing address's D-tile to it: kept verbatim,
# except that ``_maybe_prefetch`` calls this module's ``on_miss`` and the
# rows' filter names ``PrefetchKind.NONE`` for the engine's alias. Rows of
# every prefetcher kind, NEXTLINE too, count their resident CTAs per D-tile
# and retire streams. Tests check ``simulate`` against it.


class DtileGeometry:
    """One descriptor's structure extent and D-tile shape, worked out once.

    ``flat_of(addr)`` is the X->Y->Z flat index of the D-tile that holds an
    address inside the structure; ``row_bytes`` is a D-tile's X extent in
    bytes.
    """

    __slots__ = ("base", "end", "elem_size", "lenx", "leny", "dtile_dims", "counts",
                 "row_bytes")

    def __init__(self, desc: LocalityDescriptor):
        ds = desc.data
        self.base = ds.base_addr
        self.end = ds.end_addr
        self.elem_size = ds.elem_size
        self.lenx, self.leny, _ = ds.dims
        self.dtile_dims = desc.tiles.dtile_dims
        self.counts = dtile_count(desc)
        self.row_bytes = self.dtile_dims[0] * ds.elem_size

    def flat_of(self, addr: int) -> int:
        elem = (addr - self.base) // self.elem_size
        row, ex = divmod(elem, self.lenx)
        ez, ey = divmod(row, self.leny)
        dx, dy, dz = self.dtile_dims
        nx, ny, _ = self.counts
        return ex // dx + nx * (ey // dy + ny * (ez // dz))


@dataclass
class StreamState:
    """Per-context prefetcher state for one descriptor: its D-tile geometry
    and the D-tiles streaming now."""

    tiles: DtileGeometry
    active_dtiles: set[int] = field(default_factory=set)

    @classmethod
    def for_descriptor(cls, desc: LocalityDescriptor) -> "StreamState":
        return cls(DtileGeometry(desc))


def on_miss(
    addr: int,
    kind: PrefetchKind,
    desc: LocalityDescriptor,
    l1_size: int,
    state: StreamState,
    line_size: int = 128,
) -> list[int]:
    """React to a demand miss at ``addr``, inside the descriptor's structure,
    with prefetcher ``kind``: track the stream and return the addresses to
    prefetch, at most one."""
    tiles = state.tiles
    state.active_dtiles.add(tiles.flat_of(addr))
    if kind is PrefetchKind.NEXTLINE:
        target = addr + line_size
    elif kind is PrefetchKind.STRIDE:
        factor = l1_size // (len(state.active_dtiles) * tiles.row_bytes)
        if factor == 0:
            target = addr + line_size  # nextline fallback
        else:
            target = addr + factor * desc.pattern.stride_bytes
    else:
        return []  # NONE
    if not tiles.base <= target < tiles.end:
        return []
    return [target]


class StreamStateSimulation(_Simulation):
    """``_Simulation`` with the old per-SM ``StreamState``s in ``sm.streams``
    (row index -> its stream) and ``dtile_users`` kept for every prefetching
    row."""

    def __init__(self, *args):
        super().__init__(*args)
        self.prefetch_rows = [r for r in self.rows if r.prefetch is not PrefetchKind.NONE]
        self.dtile_users: dict[tuple[int, int, int], int] = {}
        for sm in self.sms:
            sm.streams = {}

    def _maybe_prefetch(self, sm: _Sm, addr: int, row: _Row, cycle: int) -> None:
        """Issue the prefetches that a demand miss of ``row`` asks for from
        the prefetcher kind its policy names (not NONE). A target's home
        zone is that of the row that holds it, which may be a
        higher-priority, overlapping descriptor's."""
        desc = row.table.desc
        state = sm.streams.get(row.index)
        if state is None:
            state = sm.streams[row.index] = StreamState.for_descriptor(desc)
        l1, line_size = sm.l1, self.line_size
        for target in on_miss(addr, row.prefetch, desc, self.config.l1.capacity, state, line_size):
            line_addr = target - target % line_size
            if l1.contains(line_addr) or l1.inflight(line_addr):
                continue
            try:
                l1.access(line_addr, InsertionClass.SOFT_PIN, cycle)
            except MshrFull:
                continue
            resolve = self._row_of(line_addr).home
            home = 0 if resolve is None else resolve(line_addr, sm.zone)
            latency = self._memory_latency(sm.zone, line_addr, home, cycle)
            self._schedule_fill(sm, line_addr, cycle + latency)
            self.pf_issued += 1
            sm.prefetched.add(line_addr)

    def _mark_started(self, sm: _Sm, cta: _Cta) -> None:
        cta.started = True
        for row in self.prefetch_rows:
            table = row.table
            key = (sm.sm, row.index, table.dtiles[table.slot[cta.flat][0]].flat)
            self.dtile_users[key] = self.dtile_users.get(key, 0) + 1

    def _complete_cta(self, sm: _Sm, cta: _Cta) -> None:
        self.unfinished -= 1
        for row in self.prefetch_rows:
            table = row.table
            dt = table.dtiles[table.slot[cta.flat][0]].flat
            key = (sm.sm, row.index, dt)
            self.dtile_users[key] -= 1
            if self.dtile_users[key] == 0:
                state = sm.streams.get(row.index)
                if state is not None:
                    # Its stream ends, widening the distances of the rest.
                    state.active_dtiles.discard(dt)
        if cta in sm.resident:
            sm.resident.remove(cta)
            # Renumber the slots left, keeping their order and which are ready.
            ready = set(sm.ready)
            sm.slots = [s for s in sm.slots if s.cta is not cta]
            sm.ready = [pos for pos, s in enumerate(sm.slots) if s.pos in ready]
            for pos, slot in enumerate(sm.slots):
                slot.pos = pos
            if sm.slots:
                sm.ptr %= len(sm.slots)
            else:
                sm.ptr = 0
            # ``ptr`` may now name another warp, so a stalled SM tries again.
            if sm.ready:
                self.awake.add(sm.sm)
            self._refill(sm)
