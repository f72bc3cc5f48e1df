"""Reference implementations that tests compare the simulator against."""

import io
import json
import math
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, NoReturn, TextIO

from ldesc_sim import (
    AccessOutcome,
    CacheConfig,
    InsertionClass,
    NumaPlan,
    PrefetchKind,
    SimMetrics,
    TileTable,
    ZoneMapping,
    simulate,
)
from ldesc_sim import engine, numa, sched
from ldesc_sim.descriptor import PAGE_BITS, LocalityType, SharingType, ctile_count, dtile_count
from ldesc_sim.engine import AccessEvent, Workload
from ldesc_sim.errors import ConfigError, ConfigMismatch, LdescError, MshrFull
from ldesc_sim.grid import ByteRun, TileIndex, unflatten_xyz
from ldesc_sim.numa import MappingScheme

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


# The placement search (Algorithm 2) written out from README's rules alone,
# the reference for ``place_and_partition``. It reads no ``TileTable``,
# ``box_ctas``, ``majority_zone`` or private library name, so a slip in
# those shows as a different plan; each D-tile's zone bytes come from its
# byte runs. Slow: it works every C-tile out again for every bit it tries.
_LOW_BITS = range(7, 17)  # bits 7..16, so 128 B bursts never split


def _lowest_argmax(values):
    """Index of the largest value; ties go to the lowest index."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def _xyz_order(counts):
    """Every index triple below ``counts``, X fastest."""
    return [(x, y, z) for z in range(counts[2]) for y in range(counts[1])
            for x in range(counts[0])]


def ranked_dtiles(desc, grid):
    """Each C-tile's D-tile, C-tiles in X->Y->Z order. The k-th C-tile in
    map-ranked order (the rank-1 axis fastest) accesses the k-th D-tile in
    X->Y->Z order."""
    ranks = desc.tiles.compute_data_map
    counts = [-(-g // c) for g, c in zip(grid.dims, desc.tiles.ctile_dims)]
    dcounts = [-(-n // d) for n, d in zip(desc.data.dims, desc.tiles.dtile_dims)]
    ctiles, dtiles = _xyz_order(counts), _xyz_order(dcounts)
    slowest_first = sorted(range(3), key=lambda axis: -ranks[axis])
    ranked = sorted(ctiles, key=lambda ct: [ct[axis] for axis in slowest_first])
    dtile_of = {ct: TileIndex(dtiles[k], k) for k, ct in enumerate(ranked)}
    return [dtile_of[ct] for ct in ctiles]


def ctile_pairs(desc, grid):
    """Each C-tile's CTA flat ids and its D-tile's byte runs, C-tiles in
    X->Y->Z order, each D-tile from ``ranked_dtiles``."""
    counts = [-(-g // c) for g, c in zip(grid.dims, desc.tiles.ctile_dims)]
    return [
        ([cta_flat(cta, grid) for cta in ctas_in_ctile(ct, desc, grid)], byte_runs(dtile, desc))
        for ct, dtile in zip(_xyz_order(counts), ranked_dtiles(desc, grid))
    ]


def affinity_partition(desc, low_bit, grid, zone_count):
    """NUMA_PART: each C-tile's CTAs go to the zone that holds the most of
    its D-tile's bytes, ties to the lowest zone."""
    part = {}
    for ctas, runs in ctile_pairs(desc, grid):
        zone = _lowest_argmax(zone_bytes_of_runs(runs, low_bit, zone_count))
        for flat in ctas:
            part[flat] = zone
    return part


def local_utility(weight, desc, part, low_bit, grid, zone_count):
    """COMP_UTIL: ``weight`` x the share of the structure's bytes that lie in
    their C-tile's zone, the zone most of its CTAs sit in under ``part``
    (ties to the lowest zone)."""
    local = 0
    for ctas, runs in ctile_pairs(desc, grid):
        votes = [0] * zone_count
        for flat in ctas:
            votes[part[flat]] += 1
        local += zone_bytes_of_runs(runs, low_bit, zone_count)[_lowest_argmax(votes)]
    return weight * local / desc.data.total_bytes


def placement_plan(descs, grid, zone_count):
    """The plan the placement search must return for priority-ordered
    ``descs``, as ``NumaPlan.to_json()`` plus its ``balance_guard_failed``.

    Each bit in 7..16 is a candidate for the top descriptor: its partition
    is ``affinity_partition`` at that bit. Descriptor i (of n, top first)
    weighs n - i. Every later structure takes the bit of highest utility
    under that partition (ties to the lowest bit); a structure placed
    already, the top one included, keeps its bit. A candidate whose
    partition puts more than 125% of ceil(CTAs / zones) in one zone is
    rejected; the best candidate left wins, ties to the lowest bit. If none
    is left, the best candidate overall wins, with the guard flag set.
    """
    n = len(descs)
    best = best_balanced = None
    for b_hi in _LOW_BITS:
        part = affinity_partition(descs[0], b_hi, grid, zone_count)
        bits = {descs[0].data.name: b_hi}
        util = local_utility(n, descs[0], part, b_hi, grid, zone_count)
        added = 0.0
        for i, desc in enumerate(descs[1:], 1):
            name = desc.data.name
            if name not in bits:
                utils = [local_utility(n - i, desc, part, b, grid, zone_count) for b in _LOW_BITS]
                bits[name] = _LOW_BITS[_lowest_argmax(utils)]
            added += local_utility(n - i, desc, part, bits[name], grid, zone_count)
        loads = [0] * zone_count
        for zone in part.values():
            loads[zone] += 1
        plan = {
            "partition": [part[flat] for flat in sorted(part)],
            "mappings": {name: {"scheme": "BITRANGE", "low_bit": bit}
                         for name, bit in sorted(bits.items())},
            "utility": util + added,
        }
        if best is None or plan["utility"] > best["utility"]:
            best = plan
        if max(loads) <= -(-len(part) // zone_count) * 1.25 and (
            best_balanced is None or plan["utility"] > best_balanced["utility"]
        ):
            best_balanced = plan
    if best_balanced is None:
        return {**best, "balance_guard_failed": True}
    return {**best_balanced, "balance_guard_failed": False}


# The reference: the cache as it stood when every way of every set was built
# up front as an invalid line, kept verbatim as the oracle, except that it is
# renamed and reads its line size, set count and a reset's priority once.
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
        self.line_size, self.num_sets = config.line_size, config.num_sets

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_size
        return line % self.num_sets, line // self.num_sets

    def contains(self, addr: int) -> bool:
        set_idx, tag = self._locate(addr)
        return any(l.valid and l.tag == tag for l in self.sets[set_idx])

    def inflight(self, addr: int) -> bool:
        return addr // self.line_size in self.mshr

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
        line = addr // self.line_size
        if line in self.mshr:
            return AccessOutcome.INFLIGHT_HIT
        if len(self.mshr) >= self.config.mshr_entries:
            raise MshrFull(f"no MSHR entry for line {line:#x}")
        self.mshr[line] = iclass
        return AccessOutcome.MISS

    def fill(self, addr: int, cycle: int) -> None:
        """Complete an outstanding miss and install the line (unless bypassed)."""
        line = addr // self.line_size
        iclass = self.mshr.pop(line)
        if iclass is InsertionClass.BYPASS:
            return
        set_idx = line % self.num_sets
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
        victim.tag = line // self.num_sets
        victim.priority = _PRIORITY[iclass]
        victim.last_used = self._use_clock

    def tick(self, cycle: int) -> None:
        """Advance the pin-reset timer; on each period boundary unpin everything."""
        period = self.config.pin_reset_period
        if period > 0 and cycle > 0 and cycle % period == 0:
            normal = _PRIORITY[InsertionClass.NORMAL]
            for ways in self.sets:
                for way in ways:
                    way.priority = normal


# The box and schedule code as it stood before one box enumerator and one
# zone round-robin loop replaced it, kept verbatim except that each schedule
# returns its assignment dict, ``ClusterDims.count_in`` is ``_count_in`` and
# ``assign_clusters_by_zone`` counts each cluster's zone vote itself.


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
        votes = [0] * zone_count
        for cta in members:
            votes[cta_zones[cta]] += 1
        zone = min(range(zone_count), key=lambda z: (-votes[z], z))  # ties: lowest zone
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


# Access generation as it stood with one Python step per element, kept (only
# renamed) as the reference for ``dtile_byte_runs``, ``TileTable.lines``,
# ``generate_accesses`` and ``cta_warp_queues``. A tile table only names each
# CTA's C-tile, rank and D-tile here; runs and lines are worked out again.
def byte_runs(dtile, desc):
    """One run per (y, z) line inside the D-tile, clipped to the structure."""
    ds = desc.data
    dx, dy, dz = desc.tiles.dtile_dims
    lenx, leny, lenz = ds.dims
    ix, iy, iz = dtile.coords
    x0 = ix * dx
    run_elems = min(dx, lenx - x0)
    runs = []
    for z in range(min(dz, lenz - iz * dz)):
        for y in range(min(dy, leny - iy * dy)):
            elem = ((iz * dz + z) * leny + (iy * dy + y)) * lenx + x0
            runs.append(
                ByteRun(ds.base_addr + elem * ds.elem_size, run_elems * ds.elem_size)
            )
    return runs


def line_list(runs, line_size):
    """The line addresses the runs touch, in run order, each once."""
    lines = []
    seen = set()
    for run in runs:
        first = run.start // line_size
        last = (run.start + run.length - 1) // line_size
        for ln in range(first, last + 1):
            if ln not in seen:
                seen.add(ln)
                lines.append(ln * line_size)
    return lines


def _seeded(seed, *salt):
    mixed = seed
    for s in salt:
        mixed = mixed * 1_000_003 + s + 1
    return random.Random(mixed)


def accesses(table, cta, seed, line_size=128):
    """The (warp, address) stream of one CTA over ``table``'s descriptor."""
    desc = table.desc
    k, rank = table.slot[cta]
    dtile = table.dtiles[k]
    runs = byte_runs(dtile, desc)
    members = len(table.ctas[k])
    warps = table.grid.warps_per_cta

    def deal(addrs):
        return [(i % warps, a) for i, a in enumerate(addrs)]

    if desc.ltype is LocalityType.INTER_THREAD:
        if desc.sharing is SharingType.COACCESSED:
            if desc.pattern.regular:
                stride = desc.pattern.stride_bytes
                addrs = [
                    a
                    for run in runs
                    for a in range(run.start, run.start + run.length, stride)
                ]
            else:
                addrs = line_list(runs, line_size)
                _seeded(seed, dtile.flat, cta).shuffle(addrs)
            return deal(addrs)
        # this CTA's share of the lines, widened by one line on each side
        lines = line_list(runs, line_size)
        width = -(-len(lines) // members)
        start = rank * width
        if start >= len(lines):
            return []
        return deal(lines[max(0, start - 1) : start + width + 1])

    share = _slice(line_list(runs, line_size), rank, members)
    if desc.ltype is LocalityType.INTRA_THREAD:
        per_warp = []
        for w in range(warps):
            sub = _slice(share, w, warps)
            if not sub:
                continue
            if not desc.pattern.regular:
                sub = list(sub)
                _seeded(seed, dtile.flat, cta, w).shuffle(sub)
            per_warp.append((w, sub + sub))  # two passes: the declared reuse
        out = []
        depth = max(len(s) for _, s in per_warp) if per_warp else 0
        for i in range(depth):
            for w, s in per_warp:
                if i < len(s):
                    out.append((w, s[i]))
        return out

    # NO_REUSE: one streaming pass over this CTA's share
    if not desc.pattern.regular:
        share = list(share)
        _seeded(seed, dtile.flat, cta).shuffle(share)
    return deal(share)


def warp_queues(workload, tables, cta, line_size):
    """Per-warp address queues of one CTA: its descriptors' streams take
    turns, index by index, in priority order."""
    streams = [accesses(t, cta, workload.seed, line_size) for t in tables]
    queues = {w: deque() for w in range(workload.grid.warps_per_cta)}
    depth = max((len(s) for s in streams), default=0)
    for i in range(depth):
        for s in streams:
            if i < len(s):
                w, addr = s[i]
                queues[w].append(addr)
    return queues


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


def replay_error(events, sm_count, cta_count, warps):
    """The message of the ConfigMismatch that replaying ``events`` raises
    before it issues any, or None. Each event in turn is checked for an SM,
    CTA or warp outside the system or grid, then for a cycle before 0, then
    for a CTA that an earlier event put on another SM; the first failed
    check names the error."""
    first_sm = {}  # CTA -> the SM of its first event
    for ev in events:
        if not (0 <= ev.sm < sm_count and 0 <= ev.cta < cta_count and 0 <= ev.warp < warps):
            return (f"trace event (sm={ev.sm}, cta={ev.cta}, warp={ev.warp}) outside "
                    "this system/grid")
        if ev.issue_cycle < 0:
            return f"trace event at cycle {ev.issue_cycle}, before cycle 0"
        home = first_sm.setdefault(ev.cta, ev.sm)
        if home != ev.sm:
            return f"trace puts CTA {ev.cta} on SM {home} and on SM {ev.sm}; a CTA runs on one SM"
    return None


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
    elif isinstance(placement, NumaPlan):
        cls = sched.form_clusters(cfg.descs, grid, sms // zones)
        schedule = sched.assign_clusters_by_zone(cls, grid, placement.cta_partition, sms, zones)
    else:
        schedule = sched.assign_clusters(sched.form_clusters(cfg.descs, grid, sms), grid, sms)
    return workload, policies, schedule, placement


# The engine as a plain reference, written from README, docs/formats.md and
# the engine's docstrings, sharing no code with ``ldesc_sim.engine``: it
# visits every cycle, retries every SM, runs OracleCaches and finds each
# address's home zone and D-tile with the functions above.


class _RefCta:
    def __init__(self, flat: int, sm: "_RefSm", pending: int, streams: list):
        self.flat, self.sm = flat, sm
        self.pending = pending  # accesses not yet completed, issued or not
        self.streams = streams  # (sm, STRIDE descriptor, its D-tile) keys of ``users``
        self.started = False


class _RefWarp:
    def __init__(self, cta: _RefCta, warp: int, queue: deque):
        self.cta, self.warp = cta, warp
        self.queue = queue  # addresses left to issue
        self.ready_at = 0  # the cycle its access in flight completes


class _RefSm:
    def __init__(self, sm: int, zone: int, l1: OracleCache, ctas: list[int], descs: int):
        self.sm, self.zone, self.l1 = sm, zone, l1
        self.waiting = deque(ctas)  # scheduled CTAs not yet resident
        self.resident: list[_RefCta] = []
        self.warps: list[_RefWarp] = []  # the resident CTAs' warps with accesses, in arrival order
        self.ptr = 0  # the warp the next scan starts at
        self.fill_at: dict[int, int] = {}  # line -> cycle its fill lands
        self.prefetched: set[int] = set()  # lines prefetched and not yet demanded
        self.streams = [set() for _ in range(descs)]  # per descriptor: D-tiles streaming
        self.lines: set[int] = set()  # lines demanded: its working set


class ReferenceSimulation:
    """``simulate``'s live run worked out the slow way: ``run_live()``, then
    ``metrics()`` and ``trace``, the run's demand trace."""

    def __init__(self, workload: Workload, config, schedule, placement, policies):
        self.workload, self.config, self.policies = workload, config, policies
        self.trace: list[AccessEvent] = []
        self.line_size = config.l1.line_size
        self.tables = [TileTable(d, workload.grid) for d in workload.descs]
        self.ranges = [(d.data.base_addr, d.data.end_addr) for d in workload.descs]
        self.stride = [i for i, p in enumerate(policies) if p.prefetch is PrefetchKind.STRIDE]
        zones = config.zone_count
        self.sms = [_RefSm(s, s // (config.sm_count // zones), OracleCache(config.l1),
                           sorted(c for c, on in schedule.assignment.items() if on == s),
                           len(workload.descs)) for s in range(config.sm_count)]
        self.l2 = [OracleCache(config.l2) for _ in range(zones)]
        self.levels = [(config.l1.pin_reset_period, [sm.l1 for sm in self.sms]),
                       (config.l2.pin_reset_period, self.l2)]  # ticked on its multiples
        copies: dict[int, ZoneMapping] = {}  # a run's own copy of each mapping
        self.mappings = []
        for desc in workload.descs:
            mapping = placement
            if isinstance(placement, NumaPlan):
                mapping = placement.per_structure[desc.data.name]
            if mapping is not None:
                fresh = replace(mapping, page_table=dict(mapping.page_table))
                mapping = copies.setdefault(id(mapping), fresh)
            self.mappings.append(mapping)
        self.users: dict[tuple[int, int, int], int] = {}  # started, unfinished CTAs
        self.fills: dict[int, list[tuple[_RefSm, int]]] = {}  # cycle -> L1 fills
        self.completions: dict[int, list[_RefWarp]] = {}  # cycle -> accesses, in issue order
        self.link_free: dict[tuple[int, int], float] = {}
        self.unfinished = workload.grid.total_ctas
        self.hits = self.inflight_hits = self.misses = self.last_completion = 0
        self.zone_accesses = [0] * zones
        self.local = self.remote_traffic = self.pf_issued = self.pf_useful = 0

    def _desc_of(self, addr: int) -> int:
        """The index of the highest-priority descriptor that holds ``addr``:
        the first, in priority order, whose structure's byte range does."""
        for i, (base, end) in enumerate(self.ranges):
            if base <= addr < end:
                return i
        raise ConfigMismatch(f"address {addr:#x} matches no descriptor")

    def _memory(self, sm: _RefSm, line: int, home: int, cycle: int) -> int:
        """Latency of an L1 miss: L2 of the home zone, then its memory, over
        the rate-limited link from the SM's zone when that is remote."""
        lat = self.config.latencies
        l2 = self.l2[home]
        if l2.access(line, InsertionClass.NORMAL, cycle) is not AccessOutcome.MISS:
            return lat.l2_hit
        l2.fill(line, cycle)
        if home == sm.zone:
            return lat.local_mem
        start = max(cycle, self.link_free.get((sm.zone, home), 0))
        self.link_free[sm.zone, home] = start + 1 / self.config.remote_link_capacity
        self.remote_traffic += 1
        return lat.remote_mem + math.ceil(start) - cycle

    def _fill_later(self, sm: _RefSm, line: int, at: int) -> None:
        self.fills.setdefault(at, []).append((sm, line))
        sm.fill_at[line] = at

    def _prefetch(self, sm: _RefSm, addr: int, i: int, cycle: int) -> None:
        """Issue the prefetch, if any, that a demand miss of descriptor ``i`` asks for."""
        desc, kind = self.workload.descs[i], self.policies[i].prefetch
        target = addr + self.line_size
        if kind is PrefetchKind.STRIDE:
            active = sm.streams[i]
            active.add(dtile_of_address(addr, desc).flat)
            width = desc.tiles.dtile_dims[0] * desc.data.elem_size
            factor = self.config.l1.capacity // (len(active) * width)
            if factor:
                target = addr + factor * desc.pattern.stride_bytes
        line = target - target % self.line_size
        if not contains(desc.data, target) or sm.l1.contains(line) or sm.l1.inflight(line):
            return
        try:
            sm.l1.access(line, InsertionClass.SOFT_PIN, cycle)
        except MshrFull:
            return
        mapping = self.mappings[self._desc_of(line)]
        home = home_zone(line, mapping, sm.zone, self.config.zone_count)
        self._fill_later(sm, line, cycle + self._memory(sm, line, home, cycle))
        self.pf_issued += 1
        sm.prefetched.add(line)

    def _issue(self, warp: _RefWarp, cycle: int) -> int | None:
        """The warp's next demand access; its completion cycle, or None on
        a full MSHR, when the warp keeps the access."""
        cta, sm, addr = warp.cta, warp.cta.sm, warp.queue[0]
        i = self._desc_of(addr)
        policy = self.policies[i]
        try:
            outcome = sm.l1.access(addr, policy.insertion, cycle)
        except MshrFull:
            return None
        warp.queue.popleft()
        home = home_zone(addr, self.mappings[i], sm.zone, self.config.zone_count)
        self.zone_accesses[home] += 1
        self.local += home == sm.zone
        line = addr - addr % self.line_size
        sm.lines.add(line)
        if not cta.started:
            cta.started = True
            for key in cta.streams:
                self.users[key] = self.users.get(key, 0) + 1
        self.trace.append(AccessEvent(sm.sm, cta.flat, warp.warp, addr, cycle))
        if line in sm.prefetched:
            sm.prefetched.remove(line)
            self.pf_useful += outcome is not AccessOutcome.MISS
        if outcome is AccessOutcome.HIT:
            self.hits += 1
            completion = cycle + self.config.latencies.l1_hit
        elif outcome is AccessOutcome.INFLIGHT_HIT:
            self.inflight_hits += 1
            completion = sm.fill_at[line]
        else:
            self.misses += 1
            completion = cycle + self._memory(sm, line, home, cycle)
            self._fill_later(sm, line, completion)
            if policy.prefetch is not PrefetchKind.NONE:
                self._prefetch(sm, addr, i, cycle)
        self.completions.setdefault(completion, []).append(warp)
        return completion

    def _refill(self, sm: _RefSm) -> None:
        """Make waiting CTAs resident while there is room; each CTA's warps
        take its descriptors' accesses in turn, one from each per step."""
        while sm.waiting and len(sm.resident) < self.config.max_resident_ctas_per_sm:
            flat = sm.waiting.popleft()
            queues = warp_queues(self.workload, self.tables, flat, self.line_size)
            if not any(queues.values()):
                self.unfinished -= 1
                continue
            keys = [(sm.sm, j, self.tables[j].dtiles[self.tables[j].slot[flat][0]].flat)
                    for j in self.stride]
            cta = _RefCta(flat, sm, sum(map(len, queues.values())), keys)
            sm.resident.append(cta)
            sm.warps += [_RefWarp(cta, w, q) for w, q in queues.items() if q]

    def _complete(self, cta: _RefCta) -> None:
        """A finished CTA ends the streams no other CTA of its SM uses and
        leaves room for the next."""
        sm = cta.sm
        self.unfinished -= 1
        for key in cta.streams:
            self.users[key] -= 1
            if self.users[key] == 0:
                sm.streams[key[1]].discard(key[2])
        sm.resident.remove(cta)
        sm.warps = [w for w in sm.warps if w.cta is not cta]
        sm.ptr = sm.ptr % len(sm.warps) if sm.warps else 0
        self._refill(sm)

    def run_live(self) -> None:
        """Each cycle ticks the caches and lands its fills, then its
        completions. Then each SM in id order issues the first warp, from
        ``ptr`` on, that is ready and has work; the next scan starts after a
        warp that issues, and at a warp that stalls."""
        for sm in self.sms:
            self._refill(sm)
        cycle = 0
        while self.unfinished:
            for period, caches in self.levels:
                if period and cycle % period == 0:
                    for cache in caches:
                        cache.tick(cycle)
            for sm, line in self.fills.pop(cycle, ()):
                sm.l1.fill(line, cycle)
                del sm.fill_at[line]
            done = self.completions.pop(cycle, ())
            if done:
                self.last_completion = cycle
            for warp in done:
                warp.cta.pending -= 1
                if warp.cta.pending == 0:
                    self._complete(warp.cta)
            for sm in self.sms:
                n = len(sm.warps)
                for k in range(n):
                    j = (sm.ptr + k) % n
                    warp = sm.warps[j]
                    if warp.ready_at <= cycle and warp.queue:
                        completion = self._issue(warp, cycle)
                        if completion is None:
                            sm.ptr = j
                        else:
                            warp.ready_at = completion
                            sm.ptr = (j + 1) % n
                        break
            cycle += 1

    def metrics(self) -> SimMetrics:
        demand = self.hits + self.inflight_hits + self.misses
        sets = [len(sm.lines) for sm in self.sms]
        share = (lambda count: count / demand) if demand else (lambda count: 0.0)
        return SimMetrics(
            demand_accesses=demand, hits=self.hits, inflight_hits=self.inflight_hits,
            misses=self.misses, l1_hit_rate=share(self.hits),
            inflight_hit_rate=share(self.inflight_hits), working_set=sets,
            avg_working_set=sum(sets) / len(sets), access_efficiency=share(self.local),
            zone_access_distribution=[share(n) for n in self.zone_accesses],
            total_cycles=self.last_completion,
            prefetch_accuracy=self.pf_useful / self.pf_issued if self.pf_issued else 0.0,
            prefetches_issued=self.pf_issued, prefetches_useful=self.pf_useful,
            remote_traffic=self.remote_traffic,
        )


def assert_matches_reference(workload, system, schedule, placement, policies, where=None):
    """``simulate`` gives the reference's metrics and demand trace. That
    trace, dumped and loaded back, equals it, and replays to the same
    metrics again."""
    args = (workload, system, schedule, placement, policies)
    trace: list[AccessEvent] = []
    live = simulate(*args, trace_sink=trace).json_str()
    ref = ReferenceSimulation(*args)
    ref.run_live()
    assert live == ref.metrics().json_str(), where
    assert trace == ref.trace, where
    text = io.StringIO()
    engine.dump_trace(trace, text)
    text.seek(0)
    loaded = engine.load_trace(text)
    assert loaded == trace, where
    assert simulate(*args, trace_in=loaded).json_str() == live, where
