"""NUMA zone mapping, CTA partitioning and the placement search.

Data structures are interleaved across zones by a consecutive bit field of
the physical address (BITRANGE), by a fold-XOR hash (the randomizing
baseline), or by first-touch page placement (the 64 KiB paging baseline).
The placement search jointly picks the top descriptor's bit field and the
CTA partition, then fits every remaining structure to that partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .descriptor import PAGE_BITS, LocalityDescriptor, log2_exact
from .errors import UnplacedPage
from .grid import CtaGrid, TileTable
from .sched import ClusterDims, Schedule, assign_clusters_by_zone, majority_zone

LOW_BIT_MIN = 7  # never split a 128 B burst across zones
LOW_BIT_MAX = 16

BALANCE_SLACK = 1.25


class MappingScheme(Enum):
    BITRANGE = "BITRANGE"
    XOR_HASH = "XOR_HASH"
    FIRST_TOUCH = "FIRST_TOUCH"


@dataclass
class ZoneMapping:
    """How one data structure's addresses resolve to NUMA zones."""

    scheme: MappingScheme
    num_bits: int
    low_bit: int = LOW_BIT_MIN
    page_table: dict[int, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"scheme": self.scheme.value, "low_bit": self.low_bit}


def bitrange(low_bit: int, zone_count: int) -> ZoneMapping:
    if not LOW_BIT_MIN <= low_bit <= LOW_BIT_MAX:
        raise ValueError(f"low_bit {low_bit} outside [{LOW_BIT_MIN}, {LOW_BIT_MAX}]")
    return ZoneMapping(MappingScheme.BITRANGE, log2_exact(zone_count), low_bit)


def xor_hash(zone_count: int) -> ZoneMapping:
    return ZoneMapping(MappingScheme.XOR_HASH, log2_exact(zone_count))


def first_touch(zone_count: int) -> ZoneMapping:
    return ZoneMapping(MappingScheme.FIRST_TOUCH, log2_exact(zone_count))


def zone_of_address(addr: int, mapping: ZoneMapping, zone_count: int) -> int:
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


def _zone_bytes_of_runs(runs, low_bit: int, zone_count: int) -> list[int]:
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


class _CtileTable:
    """One descriptor's C-tiles for one placement search.

    The C-tiles' CTAs and byte runs come from a ``TileTable``; the bytes
    each D-tile places in each zone are worked out once per low_bit, and
    within one low_bit once per key: the D-tile's clipped extents and its
    first byte modulo the stripe period ``zone_count << low_bit``.

    The key is exact. Two D-tiles of one descriptor with equal clipped
    extents have byte runs that are translates of each other: each run
    lies at the same offset from the tile's first byte, with the same
    length. Stripe k lives in zone k % zone_count, so the layout repeats
    every period, and a translation by a multiple of the period leaves
    every zone's byte count unchanged. C-tiles with equal keys share one
    (read-only) list.
    """

    def __init__(self, desc: LocalityDescriptor, grid: CtaGrid, zone_count: int):
        self.tiles = TileTable(desc, grid)
        self.total = desc.data.total_bytes
        self.zone_count = zone_count
        dims, d = desc.data.dims, desc.tiles.dtile_dims
        self._extents = [
            tuple(min(d[i], dims[i] - dtile.coords[i] * d[i]) for i in range(3))
            for dtile in self.tiles.dtiles
        ]
        self._zone_bytes: dict[int, list[list[int]]] = {}

    def zone_bytes(self, low_bit: int) -> list[list[int]]:
        """Per C-tile, the bytes of its D-tile in each zone."""
        if low_bit not in self._zone_bytes:
            period = self.zone_count << low_bit
            by_key: dict[tuple, list[int]] = {}
            out = []
            for extents, runs in zip(self._extents, self.tiles.runs):
                key = (extents, runs[0].start % period)
                if key not in by_key:
                    by_key[key] = _zone_bytes_of_runs(runs, low_bit, self.zone_count)
                out.append(by_key[key])
            self._zone_bytes[low_bit] = out
        return self._zone_bytes[low_bit]

    def partition(self, low_bit: int) -> dict[int, int]:
        """Each C-tile's CTAs go to the zone holding most of its D-tile's
        bytes (ties to the lowest zone)."""
        part: dict[int, int] = {}
        for ctas, zone_bytes in zip(self.tiles.ctas, self.zone_bytes(low_bit)):
            zone = zone_bytes.index(max(zone_bytes))
            for flat in ctas:
                part[flat] = zone
        return part

    def homes(self, part: dict[int, int]) -> list[int]:
        """Each C-tile's zone: the majority zone of its CTAs under ``part``."""
        return [majority_zone(ctas, part, self.zone_count) for ctas in self.tiles.ctas]

    def util(self, weight: int, homes: list[int], low_bit: int) -> float:
        local = sum(zb[home] for zb, home in zip(self.zone_bytes(low_bit), homes))
        return weight * local / self.total


def numa_part(
    desc: LocalityDescriptor, low_bit: int, grid: CtaGrid, zone_count: int
) -> dict[int, int]:
    """Partition CTAs by data affinity: each C-tile goes to the zone that
    holds the majority of its D-tile's bytes (ties to the lowest zone)."""
    return _CtileTable(desc, grid, zone_count).partition(low_bit)


def comp_util(
    weight: int,
    desc: LocalityDescriptor,
    cta_partition: dict[int, int],
    low_bit: int,
    grid: CtaGrid,
    zone_count: int,
) -> float:
    """Priority-weighted fraction of the structure's bytes that are local.

    A C-tile's zone is the majority zone of its CTAs under the partition
    (ties to the lowest zone); its D-tile's bytes inside that zone count as
    local.
    """
    table = _CtileTable(desc, grid, zone_count)
    return table.util(weight, table.homes(cta_partition), low_bit)


@dataclass
class NumaPlan:
    """Joint CTA partition and per-structure zone mappings."""

    cta_partition: dict[int, int]
    per_structure: dict[str, ZoneMapping]
    utility: float
    balance_guard_failed: bool = False

    def to_json(self) -> dict:
        flats = sorted(self.cta_partition)
        return {
            "partition": [self.cta_partition[f] for f in flats],
            "mappings": {
                name: m.to_json() for name, m in sorted(self.per_structure.items())
            },
            "utility": self.utility,
        }


def _is_balanced(part: dict[int, int], zone_count: int) -> bool:
    loads = [0] * zone_count
    for zone in part.values():
        loads[zone] += 1
    ideal = -(-len(part) // zone_count)
    return max(loads) <= ideal * BALANCE_SLACK


def place_and_partition(
    descs: list[LocalityDescriptor], grid: CtaGrid, zone_count: int
) -> NumaPlan:
    """Search all candidate bit fields for the top descriptor, partition the
    CTAs by data affinity, and fit every other structure to that partition.

    Each remaining structure takes the low bit with the highest utility; a
    structure already placed keeps its bit. Ties go to the lowest bit, both
    for the top descriptor's candidates and for the fitted bits. The best
    candidate whose partition loads no zone past 125% of the ideal load
    wins; should every candidate fail that guard, the best candidate
    overall is returned with ``balance_guard_failed`` set.
    """
    n = len(descs)
    bits = range(LOW_BIT_MIN, LOW_BIT_MAX + 1)
    tables = [_CtileTable(d, grid, zone_count) for d in descs]
    plans = []
    for b_hi in bits:
        part = tables[0].partition(b_hi)
        chosen = {descs[0].data.name: b_hi}
        util = tables[0].util(n, tables[0].homes(part), b_hi)
        added = 0.0
        for i in range(1, n):
            weight = n - i  # alg position i+1 -> weight n - (i+1) + 1
            table, name = tables[i], descs[i].data.name
            homes = table.homes(part)
            if name not in chosen:  # max() keeps the first, so the lowest bit
                chosen[name] = max(bits, key=lambda b: table.util(weight, homes, b))
            added += table.util(weight, homes, chosen[name])
        mappings = {name: bitrange(bit, zone_count) for name, bit in chosen.items()}
        plans.append(NumaPlan(part, mappings, util + added))
    balanced = [p for p in plans if _is_balanced(p.cta_partition, zone_count)]
    if balanced:
        return max(balanced, key=lambda p: p.utility)
    best = max(plans, key=lambda p: p.utility)
    best.balance_guard_failed = True
    return best


def distributed_schedule(grid: CtaGrid, zone_count: int, sm_count: int) -> Schedule:
    """Split the flat CTA order into zone_count equal contiguous ranges and
    round-robin each range over its zone's SMs."""
    span = -(-grid.total_ctas // zone_count)
    zones = [min(flat // span, zone_count - 1) for flat in range(grid.total_ctas)]
    return assign_clusters_by_zone(ClusterDims((1, 1, 1)), grid, zones, sm_count, zone_count)


def baseline_first_touch(
    grid: CtaGrid,
    zone_count: int,
    trace: list[tuple[int, int]],
    sm_count: int,
) -> tuple[ZoneMapping, Schedule]:
    """First-touch paging baseline with distributed contiguous scheduling.

    ``trace`` is (cta_flat, addr) pairs in execution order; each 64 KiB page
    lands in the zone of the CTA that touches it first, which is the zone of
    its SM. CTAs are split into contiguous zone ranges and round-robined over
    each zone's SMs.
    """
    schedule = distributed_schedule(grid, zone_count, sm_count)
    mapping = first_touch(zone_count)
    sm_per_zone = sm_count // zone_count
    for flat, addr in trace:
        mapping.page_table.setdefault(addr >> PAGE_BITS, schedule.assignment[flat] // sm_per_zone)
    return mapping, schedule
