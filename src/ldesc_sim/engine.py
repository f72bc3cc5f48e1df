"""Synthetic workload generation and the cycle-based multi-SM simulation.

The simulation is deliberately approximate in timing (one outstanding
access per warp, flat latencies, a per-zone-pair link rate limit) but exact
in counting: hit/miss/inflight conservation, per-SM working sets and NUMA
locality fractions are the quantities the test suite pins down.

A run is strictly single-threaded and deterministic: identical workload,
configuration and seed produce bit-identical metrics. A recorded demand
trace can be replayed through the same pipeline and reproduces the same
metrics because every downstream decision (caches, prefetcher, placement)
is a deterministic function of the issue sequence.
"""

from __future__ import annotations

import heapq
import json
import math
import random
import re
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, NamedTuple, NoReturn, TextIO

from . import prefetch as pf
from .cache import (
    _HIT, _INFLIGHT_HIT, _MISS, CacheConfig, CacheModel, InsertionClass,
)
from .descriptor import PAGE_BITS, LocalityDescriptor, LocalityType, SharingType
from .errors import TOO_DEEP, ConfigError, ConfigMismatch, MshrFull, too_long_int, undecodable
from .grid import CtaGrid, TileTable
from .numa import MappingScheme, NumaPlan, ZoneMapping, zone_of_address
from .prefetch import _NO_PREFETCH, _STRIDE, PrefetchKind


@dataclass(frozen=True)
class Latencies:
    l1_hit: int = 1
    l2_hit: int = 30
    local_mem: int = 200
    remote_mem: int = 300


@dataclass(frozen=True)
class SystemConfig:
    sm_count: int = 8
    zone_count: int = 1
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, ways=4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(256 * 1024, ways=8))
    latencies: Latencies = field(default_factory=Latencies)
    remote_link_capacity: float = 0.5
    max_resident_ctas_per_sm: int = 4

    def sm_zone(self, sm: int) -> int:
        return sm // (self.sm_count // self.zone_count)


PRESETS = {
    "desk": lambda: SystemConfig(),
    "desk-numa": lambda: SystemConfig(sm_count=16, zone_count=4),
    "paper-single": lambda: SystemConfig(
        sm_count=15,
        zone_count=1,
        l2=CacheConfig(768 * 1024, ways=16),
    ),
    "paper-numa": lambda: SystemConfig(
        sm_count=64,
        zone_count=4,
        l2=CacheConfig(4 * 1024 * 1024, ways=16),
    ),
}


def preset(name: str) -> SystemConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigMismatch(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None


@dataclass(frozen=True)
class DescriptorPolicy:
    """One descriptor's cache insertion class and the prefetcher kind run
    on its demand misses."""

    insertion: InsertionClass
    prefetch: PrefetchKind


def select_policies(descs: list[LocalityDescriptor]) -> tuple[DescriptorPolicy, ...]:
    """Map each descriptor's locality type to its architectural levers, one
    policy per descriptor, aligned with ``descs``.

    Inter-thread data is soft pinned, with stride prefetch for regular
    co-access and nextline for nearby sharing.
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
            out.append(DescriptorPolicy(InsertionClass.SOFT_PIN, kind))
        elif d.ltype is LocalityType.INTRA_THREAD:
            out.append(DescriptorPolicy(InsertionClass.HARD_PIN, PrefetchKind.NONE))
        else:
            out.append(DescriptorPolicy(InsertionClass.BYPASS, PrefetchKind.NONE))
    return tuple(out)


def normal_policies(descs: list[LocalityDescriptor]) -> tuple[DescriptorPolicy, ...]:
    """Baseline cache behaviour: plain LRU insertion, no prefetching."""
    return (DescriptorPolicy(InsertionClass.NORMAL, PrefetchKind.NONE),) * len(descs)


# ---------------------------------------------------------------------------
# Workload synthesis


@dataclass
class Workload:
    grid: CtaGrid
    descs: list[LocalityDescriptor]  # validated, priority order
    seed: int = 1


def _slice(items: list[int], index: int, parts: int) -> list[int]:
    width = -(-len(items) // parts) if items else 0
    return items[index * width : (index + 1) * width]


def _rng(seed: int, *salt: int) -> random.Random:
    mixed = seed
    for s in salt:
        mixed = mixed * 1_000_003 + s + 1
    return random.Random(mixed)


def generate_accesses(
    table: TileTable,
    cta: int,
    seed: int,
    line_size: int = 128,
) -> list[tuple[int, int]]:
    """Deterministic (warp, address) stream of one CTA over one descriptor.

    ``table`` is the descriptor's tile table and ``cta`` a CTA flat id.
    Co-accessed tiles are walked in full by every CTA of the C-tile; nearby
    sharing gives each CTA a window overlapping its neighbours by one line;
    intra-thread reuse walks per-warp private sub-ranges twice; no-reuse
    data is streamed through once. Irregular patterns are seeded
    permutations, so equal seeds reproduce equal sequences.
    """
    desc = table.desc
    k, rank = table.slot[cta]
    dtile = table.dtiles[k]
    runs = table.runs(k)
    members = len(table.ctas[k])
    warps = table.grid.warps_per_cta

    def deal(addrs: Iterable[int]) -> list[tuple[int, int]]:
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
                addrs = list(table.lines(k, line_size))
                _rng(seed, dtile.flat, cta).shuffle(addrs)
            return deal(addrs)
        # this CTA's share of the lines, widened by one line on each side
        lines = table.lines(k, line_size)
        width = -(-len(lines) // members)
        start = rank * width
        if start >= len(lines):
            return []
        return deal(lines[max(0, start - 1) : start + width + 1])

    share = _slice(table.lines(k, line_size), rank, members)
    if desc.ltype is LocalityType.INTRA_THREAD:
        per_warp = []
        for w in range(warps):
            sub = _slice(share, w, warps)
            if not sub:
                continue
            if not desc.pattern.regular:
                sub = list(sub)
                _rng(seed, dtile.flat, cta, w).shuffle(sub)
            per_warp.append((w, sub + sub))  # two passes: the declared reuse
        out: list[tuple[int, int]] = []
        depth = max(len(s) for _, s in per_warp) if per_warp else 0
        for i in range(depth):
            for w, s in per_warp:
                if i < len(s):
                    out.append((w, s[i]))
        return out

    # NO_REUSE: one streaming pass over this CTA's share
    if not desc.pattern.regular:
        share = list(share)
        _rng(seed, dtile.flat, cta).shuffle(share)
    return deal(share)


def cta_warp_queues(
    workload: Workload, tables: list[TileTable], cta: int, line_size: int
) -> dict[int, deque[int]]:
    """Per-warp address queues for one CTA, interleaving its descriptors.

    ``tables`` holds the tile table of each of the workload's descriptors.
    """
    streams = [generate_accesses(t, cta, workload.seed, line_size) for t in tables]
    queues: dict[int, deque[int]] = {w: deque() for w in range(workload.grid.warps_per_cta)}
    depth = max((len(s) for s in streams), default=0)
    for i in range(depth):
        for s in streams:
            if i < len(s):
                w, addr = s[i]
                queues[w].append(addr)
    return queues


# ---------------------------------------------------------------------------
# Metrics


class AccessEvent(NamedTuple):
    sm: int
    cta: int
    warp: int
    addr: int
    issue_cycle: int


def dump_trace(events: Iterable[AccessEvent], fp: TextIO) -> None:
    """Write one JSON object per event, keys sorted, as ``json.dumps(...,
    sort_keys=True)`` would."""
    fp.writelines(
        f'{{"addr": "{addr:#x}", "cta": {cta}, "cycle": {cycle}, "sm": {sm}, '
        f'"warp": {warp}}}\n'
        for sm, cta, warp, addr, cycle in events
    )


# The one line form dump_trace writes: keys sorted, a lowercase hex address
# and non-negative decimal integers, none with a leading zero. [0-9], not \d,
# so that no Unicode digit that json.loads would refuse matches.
_TRACE_LINE = (
    r'\{"addr": "0x(0|[1-9a-f][0-9a-f]*)", "cta": (0|[1-9][0-9]*), '
    r'"cycle": (0|[1-9][0-9]*), "sm": (0|[1-9][0-9]*), "warp": (0|[1-9][0-9]*)\}'
)
_TRACE_BLOCK = 1 << 16  # characters of whole lines read at a time


class _Decimals(dict):
    """Decimal text -> its int, converting each text once. A trace's SM,
    CTA, warp and cycle texts repeat from line to line, and a text's value
    does not depend on its field, so one memo serves all four."""

    __slots__ = ()

    def __missing__(self, text: str) -> int:
        value = self[text] = int(text)
        return value


def load_trace(fp: TextIO) -> list[AccessEvent]:
    """Parse a JSONL demand trace; a malformed line, or one with a negative
    ``sm``, ``cta``, ``warp`` or ``cycle``, raises ConfigError naming it.

    The file is read in blocks of lines. A block whose every line is in
    ``dump_trace``'s own form converts in one pass without ``json``; any
    other block goes through ``json.loads`` line by line, where any JSON
    object with the five keys loads to the same event."""
    name = getattr(fp, "name", "trace")
    # Each match spans one whole line, so a block has as many matches as
    # lines exactly when every line is in dump_trace's form.
    every_line = re.compile("^" + _TRACE_LINE + "$", re.M).findall
    new = tuple.__new__
    num = _Decimals()
    events: list[AccessEvent] = []
    n = 0  # lines read so far
    try:
        while lines := fp.readlines(_TRACE_BLOCK):
            found = every_line("".join(lines))
            if len(found) == len(lines):
                try:
                    events += [
                        new(AccessEvent, (num[sm], num[cta], num[warp], int(addr, 16), num[cycle]))
                        for addr, cta, cycle, sm, warp in found
                    ]
                    n += len(lines)
                    continue
                except ValueError:
                    pass  # too many digits for int(); the JSON path names the line
            for n, line in enumerate(lines, n + 1):
                try:
                    raw = json.loads(line)
                    sm, cta, warp, cycle = raw["sm"], raw["cta"], raw["warp"], raw["cycle"]
                    addr = int(raw["addr"], 16)
                except (ValueError, TypeError, KeyError, RecursionError):
                    if line.strip():
                        _reject_trace_line(line, f"{name}:{n}")
                    continue
                # An OR of integers is negative exactly when one of them is.
                if not (type(sm) is type(cta) is type(warp) is type(cycle) is int
                        and (sm | cta | warp | cycle) >= 0):
                    _reject_trace_line(line, f"{name}:{n}")
                events.append(AccessEvent._make((sm, cta, warp, addr, cycle)))
    except UnicodeDecodeError as exc:  # only reading fp raises it, so one try covers it
        raise undecodable(name, exc) from None
    return events


def _reject_trace_line(line: str, where: str) -> NoReturn:
    """Raise the ConfigError that names what is wrong with a trace line."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}: {exc.msg}") from None
    except ValueError:
        raise ConfigError(f"{where}: {too_long_int()}") from None
    except RecursionError:
        raise ConfigError(f"{where}: {TOO_DEEP}") from None
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


@dataclass
class SimMetrics:
    demand_accesses: int
    hits: int
    inflight_hits: int
    misses: int
    l1_hit_rate: float
    inflight_hit_rate: float
    working_set: list[int]
    avg_working_set: float
    access_efficiency: float
    zone_access_distribution: list[float]
    total_cycles: int
    prefetch_accuracy: float
    prefetches_issued: int
    prefetches_useful: int
    remote_traffic: int

    def to_json_dict(self) -> dict:
        return asdict(self)

    def json_str(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Simulation core


class _Cta:
    """One CTA of a run. ``pending`` counts its accesses not yet completed,
    issued or not: a live CTA starts with its whole access count, a replayed
    one counts each of its trace events. Landing an access's completion
    record takes it off, and the CTA completes when it reaches 0. ``streams``
    is None until its first access issues, then its ``(row index, D-tile)``
    stream key of each STRIDE row: the D-tile it walks there."""

    __slots__ = ("flat", "pending", "streams")

    def __init__(self, flat: int, pending: int):
        self.flat = flat
        self.pending = pending
        self.streams: list[tuple[int, int]] | None = None


class _WarpSlot:
    """One warp of a CTA on its SM. A live slot's ``queue`` is the warp's
    address queue; a replay slot's is empty, so it never wakes, and its
    ``ready_at`` is the cycle its last access completes, before which the
    trace may not issue it again."""

    __slots__ = ("sm", "cta", "warp", "queue", "pos", "ready_at")

    def __init__(self, sm: _Sm, cta: _Cta, warp: int, queue: deque[int], pos: int):
        self.sm = sm
        self.cta = cta
        self.warp = warp
        self.queue = queue
        self.pos = pos  # its index in its SM's ``slots``; unused in a replay
        self.ready_at = 0


class _Sm:
    """One SM of a run. ``pending`` queues the CTAs a live run scheduled on it
    and has not made resident; a replay's stays empty. ``streams[i]`` holds
    the D-tiles that row ``i``'s stride prefetches stream on it now, and
    ``users`` counts its started, unfinished CTAs per stream key
    (``_Cta.streams``): a D-tile stops streaming when its count falls to 0."""

    __slots__ = ("sm", "zone", "l1", "pending", "resident", "slots", "ready", "ptr",
                 "prefetched", "fill_at", "streams", "users", "lines", "homes")

    def __init__(self, sm: int, zone: int, l1: CacheModel, rows: int, zones: int):
        self.sm = sm
        self.zone = zone
        self.l1 = l1
        self.pending: deque[int] = deque()
        self.resident: list[_Cta] = []
        self.slots: list[_WarpSlot] = []
        self.ready: list[int] = []  # sorted positions of ready slots with work left
        self.ptr = 0
        self.prefetched: set[int] = set()  # lines it prefetched and has not demanded yet
        self.fill_at: dict[int, int] = {}  # line address -> cycle its in-flight fill lands
        self.streams: list[set[int]] = [set() for _ in range(rows)]
        self.users: dict[tuple[int, int], int] = {}
        self.lines: set[int] = set()  # line addresses it demanded: its working set
        self.homes = [0] * zones  # per home zone: how many demand accesses it issued there


class _Due:
    """What one visited cycle holds, in the order it is handled: L1 fills
    (SM, line address), then one completion record per access that completes
    in it, the warp slot that issued the access.

    A record is the access's only one: landing it both finishes the access
    for its CTA and wakes its warp. The slot goes back on its SM's ready list
    if its queue still holds work; otherwise its CTA completes if it has no
    access left to issue or in flight. ``_run`` says why this is exact."""

    __slots__ = ("fills", "comps")

    def __init__(self):
        self.fills: list[tuple[_Sm, int]] = []
        self.comps: list[_WarpSlot] = []


class _Row(NamedTuple):
    """One descriptor's address range, tile table and the levers resolved
    for it once per run. ``mapping`` is the run's copy of its structure's
    mapping, None on one zone. An address's home zone is
    ``(addr >> shift) % zone_count`` where ``shift`` is not None: the low
    bit of a BITRANGE mapping, or 0 on one zone, where every address is in
    zone 0. Under FIRST_TOUCH and XOR_HASH, ``shift`` is None and
    ``home(addr, toucher_zone)`` is the zone; a first-touch ``home`` places
    pages in ``mapping``'s page table."""

    base: int
    end: int
    index: int
    table: TileTable
    insertion: InsertionClass
    prefetch: PrefetchKind
    mapping: ZoneMapping | None
    shift: int | None
    home: Callable[[int, int], int] | None


def _home_resolver(mapping: ZoneMapping, zone_count: int) -> Callable[[int, int], int]:
    """``home(addr, toucher_zone)`` under a FIRST_TOUCH or XOR_HASH
    ``mapping`` on ``zone_count`` zones."""
    if mapping.scheme is MappingScheme.FIRST_TOUCH:
        place = mapping.page_table.setdefault
        return lambda addr, toucher: place(addr >> PAGE_BITS, toucher)
    return lambda addr, _: zone_of_address(addr, mapping, zone_count)


class _Simulation:
    def __init__(
        self,
        workload: Workload,
        config: SystemConfig,
        schedule,
        placement,
        policies: tuple[DescriptorPolicy, ...],
        trace_sink: list[AccessEvent] | None,
    ):
        self.workload = workload
        self.config = config
        self.schedule = schedule
        self.trace_sink = trace_sink
        self.line_size = config.l1.line_size
        self.zone_count = config.zone_count
        self.l1_hit = config.latencies.l1_hit
        self._check_consistency()

        self.l2 = [CacheModel(config.l2) for _ in range(config.zone_count)]
        self.sms = [_Sm(s, config.sm_zone(s), CacheModel(config.l1), len(workload.descs),
                        config.zone_count) for s in range(config.sm_count)]

        # Address resolution: one row per descriptor, in priority order. The
        # first row whose range holds an address is its highest-priority
        # descriptor. Each run fills first-touch page tables of its own.
        if not isinstance(placement, (NumaPlan, ZoneMapping)) and (
            placement is not None or config.zone_count != 1
        ):
            raise ConfigMismatch("zone_count > 1 requires a placement")
        if len(policies) != len(workload.descs):
            raise ConfigMismatch(
                f"policy set has {len(policies)} entries for "
                f"{len(workload.descs)} descriptors"
            )
        copies: dict[int, ZoneMapping] = {}
        self.rows: list[_Row] = []
        for i, (desc, policy) in enumerate(zip(workload.descs, policies)):
            if policy.prefetch is _STRIDE and not desc.pattern.regular:
                raise ConfigMismatch(
                    f"policy names STRIDE prefetch for descriptor {desc.data.name!r}, "
                    "whose access pattern is irregular and has no stride"
                )
            mapping = placement
            if isinstance(placement, NumaPlan):
                mapping = placement.per_structure.get(desc.data.name)
                if mapping is None:
                    raise ConfigMismatch(f"placement plan lacks structure {desc.data.name!r}")
            if config.zone_count == 1:
                mapping, shift, home = None, 0, None
            else:
                fresh = replace(mapping, page_table=dict(mapping.page_table))
                mapping = copies.setdefault(id(mapping), fresh)
                if mapping.scheme is MappingScheme.BITRANGE:
                    shift, home = mapping.low_bit, None
                else:
                    shift, home = None, _home_resolver(mapping, config.zone_count)
            data = desc.data
            self.rows.append(_Row(data.base_addr, data.end_addr, i, TileTable(desc, workload.grid),
                                  policy.insertion, policy.prefetch, mapping, shift, home))
        self.tables = [r.table for r in self.rows]
        # The rows' ranges cut the address space into intervals, at every
        # base and end. Each interval is held by the same rows throughout,
        # so ``owner[bisect_right(bounds, addr)]`` is the first row that
        # holds ``addr``, or None where none does.
        self.bounds = sorted({a for r in self.rows for a in (r.base, r.end)})
        self.owner: list[_Row | None] = [None] + [
            next((r for r in self.rows if r.base <= lo < r.end), None) for lo in self.bounds
        ]
        self.stride_rows = [r for r in self.rows if r.prefetch is _STRIDE]

        # Event plumbing: each cycle with something due has one entry in
        # ``due`` and one place on the ``wake`` heap.
        self.due: dict[int, _Due] = {}
        self.wake: list[int] = []
        self.awake: set[int] = set()  # SMs with ready warps, not stalled
        self.link_free: dict[tuple[int, int], float] = {}

        # Metrics; demand accesses per SM and home zone are ``_Sm.homes``.
        self.hits = 0
        self.inflight_hits = 0
        self.misses = 0
        self.remote_traffic = 0
        self.pf_issued = 0
        self.pf_useful = 0
        self.last_completion = 0
        self.unfinished = 0

    def _check_consistency(self) -> None:
        grid = self.workload.grid
        cfg = self.config
        expect = set(range(grid.total_ctas))
        if set(self.schedule.assignment) != expect:
            raise ConfigMismatch("schedule does not cover the workload grid")
        if self.schedule.sm_count != cfg.sm_count:
            raise ConfigMismatch(
                f"schedule built for {self.schedule.sm_count} SMs, system has "
                f"{cfg.sm_count}"
            )
        if any(not 0 <= s < cfg.sm_count for s in self.schedule.assignment.values()):
            raise ConfigMismatch("schedule assigns an SM outside the system")
        if cfg.sm_count % cfg.zone_count != 0:
            raise ConfigMismatch("sm_count must divide evenly into zones")
        lat = cfg.latencies
        if min(lat.l1_hit, lat.l2_hit, lat.local_mem, lat.remote_mem) < 1:
            raise ConfigMismatch("latencies must be at least one cycle")
        if cfg.remote_link_capacity <= 0 or cfg.max_resident_ctas_per_sm < 1:
            raise ConfigMismatch("link capacity and residency must be positive")

    # -- address resolution ------------------------------------------------

    def _row_of(self, addr: int) -> _Row:
        """The row of ``addr``'s highest-priority descriptor, by one lookup
        in the interval map built once per run; ConfigMismatch if no
        descriptor's structure holds it."""
        row = self.owner[bisect_right(self.bounds, addr)]
        if row is None:
            raise ConfigMismatch(f"address {addr:#x} matches no descriptor")
        return row

    # -- memory path -------------------------------------------------------

    def _memory_latency(self, sm_zone: int, line_addr: int, home: int, cycle: int) -> int:
        lat = self.config.latencies
        if self.l2[home].lookup_fill(line_addr, cycle):
            return lat.l2_hit
        if home == sm_zone:
            return lat.local_mem
        start = max(float(cycle), self.link_free.get((sm_zone, home), 0.0))
        self.link_free[(sm_zone, home)] = start + 1.0 / self.config.remote_link_capacity
        self.remote_traffic += 1
        return lat.remote_mem + math.ceil(start) - cycle

    def _due_at(self, cycle: int) -> _Due:
        """The entry of ``cycle``; its first event pushes it onto the heap."""
        due = self.due.get(cycle)
        if due is None:
            due = self.due[cycle] = _Due()
            heapq.heappush(self.wake, cycle)
        return due

    def _schedule_fill(self, sm: _Sm, line_addr: int, at: int) -> None:
        self._due_at(at).fills.append((sm, line_addr))
        sm.fill_at[line_addr] = at

    # -- prefetching ---------------------------------------------------------

    def _maybe_prefetch(self, sm: _Sm, addr: int, row: _Row, cycle: int) -> None:
        """Issue the prefetches that a demand miss of ``row`` asks for from
        the prefetcher kind its policy names (not NONE). Under STRIDE the
        D-tile of ``addr`` streams on ``sm`` from now on. A target's home
        zone is that of the row that holds it, which may be a
        higher-priority, overlapping descriptor's. Every target's line has a
        row: ``on_miss`` keeps targets inside the structure, whose base is
        page aligned."""
        table, active = row.table, sm.streams[row.index]
        if row.prefetch is _STRIDE:
            active.add(table.dtile_at(addr))
        l1, line_size = sm.l1, self.line_size
        for target in pf.on_miss(addr, row.prefetch, table, self.config.l1.capacity,
                                 len(active), line_size):
            line_addr = target & -line_size
            if not l1.reserve(line_addr, cycle):
                continue
            held_by = self.owner[bisect_right(self.bounds, line_addr)]
            shift = held_by.shift
            if shift is not None:
                home = (line_addr >> shift) % self.zone_count
            else:
                home = held_by.home(line_addr, sm.zone)
            latency = self._memory_latency(sm.zone, line_addr, home, cycle)
            self._schedule_fill(sm, line_addr, cycle + latency)
            self.pf_issued += 1
            sm.prefetched.add(line_addr)

    # -- CTA lifecycle -------------------------------------------------------

    def _mark_started(self, sm: _Sm, cta: _Cta) -> None:
        cta.streams = [(r.index, r.table.dtiles[r.table.slot[cta.flat][0]].flat)
                       for r in self.stride_rows]
        for key in cta.streams:
            sm.users[key] = sm.users.get(key, 0) + 1

    def _complete_cta(self, sm: _Sm, cta: _Cta) -> None:
        """Finish ``cta`` on ``sm``, live or replayed: end each stream it was
        the last user of, take it off ``sm``, renumber the slots and refill."""
        self.unfinished -= 1
        for key in cta.streams:  # not None: a CTA completes only after it issues
            sm.users[key] -= 1
            if sm.users[key] == 0:
                # Its stream ends, widening the distances of the rest.
                sm.streams[key[0]].discard(key[1])
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

    def _refill(self, sm: _Sm) -> None:
        """Make pending CTAs resident while there is room; an SM that gains
        one wakes, since its new warps are ready at once. New slots go at the
        end of ``slots``, so appending their positions keeps ``ready`` sorted."""
        while sm.pending and len(sm.resident) < self.config.max_resident_ctas_per_sm:
            flat = sm.pending.popleft()
            queues = cta_warp_queues(self.workload, self.tables, flat, self.line_size)
            pending = sum(len(q) for q in queues.values())
            if pending == 0:
                self.unfinished -= 1
                continue
            cta = _Cta(flat, pending)
            sm.resident.append(cta)
            for w in sorted(queues):
                if queues[w]:
                    pos = len(sm.slots)
                    sm.slots.append(_WarpSlot(sm, cta, w, queues[w], pos))
                    sm.ready.append(pos)
            self.awake.add(sm.sm)

    # -- issue path ----------------------------------------------------------

    def _issue(self, slot: _WarpSlot, addr: int, cycle: int) -> int | None:
        """Run one demand access of ``slot``'s warp; returns its completion
        cycle, or None on stall. An access that issues appends the slot to
        its completion cycle's records."""
        sm, cta = slot.sm, slot.cta
        row = self.owner[bisect_right(self.bounds, addr)]
        if row is None:
            self._row_of(addr)  # raises ConfigMismatch
        try:
            outcome = sm.l1.access(addr, row.insertion, cycle)
        except MshrFull:
            return None

        shift = row.shift
        if shift is not None:
            home = (addr >> shift) % self.zone_count
        else:
            home = row.home(addr, sm.zone)
        sm.homes[home] += 1
        line_addr = addr & -self.line_size
        sm.lines.add(line_addr)
        if cta.streams is None:
            self._mark_started(sm, cta)
        if self.trace_sink is not None:
            self.trace_sink.append(AccessEvent(sm.sm, cta.flat, slot.warp, addr, cycle))

        if line_addr in sm.prefetched:
            sm.prefetched.remove(line_addr)
            if outcome is not _MISS:  # a miss: evicted before use
                self.pf_useful += 1
        if outcome is _HIT:
            self.hits += 1
            completion = cycle + self.l1_hit
        elif outcome is _INFLIGHT_HIT:
            self.inflight_hits += 1
            completion = sm.fill_at[line_addr]
        else:
            self.misses += 1
            latency = self._memory_latency(sm.zone, line_addr, home, cycle)
            completion = cycle + latency
            self._schedule_fill(sm, line_addr, completion)
            if row.prefetch is not _NO_PREFETCH:
                self._maybe_prefetch(sm, addr, row, cycle)

        due = self.due.get(completion)
        if due is None:
            due = self._due_at(completion)
        due.comps.append(slot)
        return completion

    # -- main loop -------------------------------------------------------------

    def _run(self, issue: Callable[[int], None]) -> None:
        """Visit cycle 0, then only the cycles on the wake heap, each once,
        until every CTA has finished. A visit lands the fills due in it, then
        its completion records, and calls ``issue(cycle)``, which records any
        later cycle it needs. A fill wakes the SM whose L1 it lands in, if
        that SM has ready warps: they may wait on a full MSHR.

        Each record lands once. It takes the access off its CTA's
        ``pending`` count, then puts the slot back on its SM's ready list if
        the slot's queue still holds work, or else completes the CTA if no
        access of it is left to complete. Both cannot apply: a slot with work
        left belongs to a CTA with accesses pending. A replay slot's queue is
        empty, so it never wakes. Handling a cycle's wakes among its completions,
        not after them, leaves the same ready lists, ``awake`` set and
        ``ptr``s: a completion rebuilds ``ready`` from the set of ready
        positions, renumbering any slot woken before it, and a slot woken
        after it goes in at its new position.

        Visits go in increasing cycle order and land every record, so the
        last visit that lands one is the run's last completion: each such
        visit records its cycle as ``last_completion``, the total cycles."""
        self._due_at(0)
        awake = self.awake
        while self.unfinished > 0:
            cycle = heapq.heappop(self.wake)
            due = self.due.pop(cycle)
            for sm, line_addr in due.fills:
                sm.l1.fill(line_addr, cycle)
                del sm.fill_at[line_addr]
                if sm.ready:
                    awake.add(sm.sm)
            comps = due.comps
            if comps:
                self.last_completion = cycle
            for slot in comps:
                cta = slot.cta
                cta.pending -= 1
                if slot.queue:
                    sm = slot.sm
                    insort(sm.ready, slot.pos)
                    awake.add(sm.sm)
                elif cta.pending == 0:
                    self._complete_cta(slot.sm, cta)
            issue(cycle)

    def run_live(self) -> None:
        """Issue the scheduled CTAs' accesses, scanning only awake SMs, in
        SM-id order, on each visited cycle.

        Each SM keeps ``ready``, the sorted positions in ``slots`` of its
        warps that can issue: ready and with work left. An SM is awake
        exactly when that list is not empty and it is not stalled. A scan
        takes the first position at or after ``ptr``, else the first one,
        which is the warp a walk of the slots from ``ptr`` would find. The
        warp issues or stalls; one that issued leaves the list until its
        access completes. The access's one completion record, landed by
        ``_run``, puts it back if its queue is not empty. This is exact: a
        warp is ready from its completion cycle on, and its queue changes
        only when it issues.

        An SM whose warp stalls on a full MSHR sleeps until a fill lands in
        its L1, a warp of its wakes, or one of its CTAs completes or becomes
        resident. A completion renumbers the slots but keeps ``ptr``, which
        may then name another warp, one that can hit. This is exact too:
        only its own fills free an entry and only its own issues take one,
        and a pin reset that a skipped retry would have applied is applied,
        with the same result, by the next access or fill of its L1.
        """
        self.unfinished = self.workload.grid.total_ctas
        sms, awake, issue_one = self.sms, self.awake, self._issue
        for flat, s in sorted(self.schedule.assignment.items()):
            sms[s].pending.append(flat)
        for sm in sms:
            self._refill(sm)

        def issue(cycle: int) -> None:
            for sm_id in sorted(awake):
                sm = sms[sm_id]
                ready = sm.ready
                i = bisect_left(ready, sm.ptr)
                if i == len(ready):
                    i = 0
                j = ready[i]
                slot = sm.slots[j]
                queue = slot.queue
                if issue_one(slot, queue[0], cycle) is None:
                    sm.ptr = j  # stalled: retry this warp first, once it can issue
                    awake.discard(sm_id)
                else:
                    queue.popleft()
                    del ready[i]
                    sm.ptr = (j + 1) % len(sm.slots)
                    if not ready:
                        awake.discard(sm_id)
            # An SM still awake issues again next cycle. With none awake,
            # each SM waits on a fill or completion whose cycle is queued.
            if awake:
                self._due_at(cycle + 1)

        self._run(issue)

    def run_replay(self, events: list[AccessEvent]) -> None:
        """Issue each trace event at its cycle, through one slot per (CTA,
        warp) with an empty queue. A CTA's events must all name one SM, and a
        warp's event may not come before its previous access completes. Each
        CTA is resident from the start on the SM of its first event, whose
        ``slots`` and ``pending`` stay empty, so its completion admits none.

        The first bad event raises: one outside the system or grid, then one
        before cycle 0, then one that puts its CTA on a second SM, in that
        order of checks. Slots are keyed by (SM, CTA, warp) and made only for
        events that passed every check, so an event whose slot exists needs
        only its cycle checked."""
        grid = self.workload.grid
        sm_count, cta_count, warps = self.config.sm_count, grid.total_ctas, grid.warps_per_cta
        by_cycle: dict[int, list[tuple[_WarpSlot, int]]] = {}
        ctas: dict[int, tuple[_Cta, _Sm]] = {}  # each CTA and the SM of its first event
        slots: dict[tuple[int, int, int], _WarpSlot] = {}
        for sm, cta, warp, addr, cycle in events:
            key = sm, cta, warp
            slot = slots.get(key)
            if slot is None or cycle < 0:
                if not (0 <= sm < sm_count and 0 <= cta < cta_count and 0 <= warp < warps):
                    raise ConfigMismatch(
                        f"trace event (sm={sm}, cta={cta}, warp={warp}) outside "
                        "this system/grid"
                    )
                if cycle < 0:
                    raise ConfigMismatch(f"trace event at cycle {cycle}, before cycle 0")
                # An existing slot has raised by now, so this event's warp is
                # new, or its CTA is on another SM.
                entry = ctas.get(cta)
                if entry is None:
                    entry = ctas[cta] = (_Cta(cta, 0), self.sms[sm])
                    entry[1].resident.append(entry[0])
                elif entry[1].sm != sm:
                    raise ConfigMismatch(
                        f"trace puts CTA {cta} on SM {entry[1].sm} and on SM {sm}; a CTA "
                        "runs on one SM"
                    )
                slot = slots[key] = _WarpSlot(entry[1], entry[0], warp, deque(), 0)
            slot.cta.pending += 1
            issues = by_cycle.get(cycle)
            if issues is None:
                by_cycle[cycle] = [(slot, addr)]
            else:
                issues.append((slot, addr))
        self.unfinished = len(ctas)
        for c in by_cycle:
            self._due_at(c)

        def issue(cycle: int) -> None:
            for slot, addr in by_cycle.pop(cycle, ()):
                if slot.ready_at > cycle:
                    raise ConfigMismatch(
                        f"trace issues CTA {slot.cta.flat} warp {slot.warp} at cycle {cycle}, "
                        f"before its access in flight completes at cycle {slot.ready_at}; a "
                        "warp has one access in flight"
                    )
                completion = self._issue(slot, addr, cycle)
                if completion is None:
                    raise ConfigMismatch(
                        "trace replay stalled on a full MSHR; the trace does not "
                        "match this configuration"
                    )
                slot.ready_at = completion

        self._run(issue)

    def metrics(self) -> SimMetrics:
        # Every issued access is exactly one hit, inflight hit or miss.
        demand = self.hits + self.inflight_hits + self.misses
        counts = [len(sm.lines) for sm in self.sms]
        dist = [
            (sum(zones) / demand) if demand else 0.0
            for zones in zip(*(sm.homes for sm in self.sms))
        ]
        local = sum(sm.homes[sm.zone] for sm in self.sms)
        return SimMetrics(
            demand_accesses=demand,
            hits=self.hits,
            inflight_hits=self.inflight_hits,
            misses=self.misses,
            l1_hit_rate=self.hits / demand if demand else 0.0,
            inflight_hit_rate=self.inflight_hits / demand if demand else 0.0,
            working_set=counts,
            avg_working_set=sum(counts) / len(counts) if counts else 0.0,
            access_efficiency=local / demand if demand else 0.0,
            zone_access_distribution=dist,
            total_cycles=self.last_completion,
            prefetch_accuracy=self.pf_useful / self.pf_issued if self.pf_issued else 0.0,
            prefetches_issued=self.pf_issued,
            prefetches_useful=self.pf_useful,
            remote_traffic=self.remote_traffic,
        )


def simulate(
    workload: Workload,
    config: SystemConfig,
    schedule,
    placement=None,
    policies: tuple[DescriptorPolicy, ...] | None = None,
    trace_sink: list[AccessEvent] | None = None,
    trace_in: list[AccessEvent] | None = None,
) -> SimMetrics:
    """Run the cycle loop and return counting metrics.

    ``placement`` is a NumaPlan (per-structure mappings), a single
    ZoneMapping applied to every structure, or None for single-zone
    systems. ``trace_in`` replays a previously recorded demand trace
    through the same pipeline instead of generating and scheduling
    accesses.
    """
    if policies is None:
        policies = select_policies(workload.descs)
    sim = _Simulation(workload, config, schedule, placement, policies, trace_sink)
    if trace_in is not None:
        sim.run_replay(trace_in)
    else:
        sim.run_live()
    return sim.metrics()
