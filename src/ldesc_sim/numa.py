"""NUMA zone mapping, CTA partitioning and the placement search.

Data structures are interleaved across zones by a consecutive bit field of
the physical address (BITRANGE), by a fold-XOR hash (the randomizing
baseline), or by first-touch page placement (the 64 KiB paging baseline).
The placement search jointly picks the top descriptor's bit field and the
CTA partition, then fits every remaining structure to that partition, once
per distinct partition. It counts the bytes each D-tile places in each zone
from the tile's geometry and builds no byte runs: one row per residue of
the stripe period, or, when the stripes are wide against the row pitch and
the tile spans fewer of them than that, one stripe at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import gcd

from .descriptor import PAGE_BITS, LocalityDescriptor, log2_exact
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
    """Resolve a byte address to its NUMA zone under a BITRANGE or XOR_HASH
    mapping. A FIRST_TOUCH mapping has no such rule: its ``page_table``
    holds the zone of each page touched so far."""
    if mapping.scheme is MappingScheme.XOR_HASH:
        n = mapping.num_bits
        return ((addr >> 7) ^ (addr >> (7 + n)) ^ (addr >> (7 + 2 * n))) % zone_count
    if mapping.scheme is MappingScheme.BITRANGE:
        return (addr >> mapping.low_bit) % zone_count
    raise ValueError("a FIRST_TOUCH mapping places pages in its page_table, not by address")


def _zone_bytes_of_dtile(
    first: int, shape: tuple[int, int, int], pitches: tuple[int, int],
    low_bit: int, zone_count: int,
) -> list[int]:
    """Bytes a D-tile places in each zone, from its geometry alone.

    The D-tile is ``rows`` x ``planes`` runs of ``length`` bytes (``shape``);
    run (y, z) starts at ``first + y * row_pitch + z * plane_pitch``.
    Stripe k (``1 << low_bit`` bytes) lives in zone k % zone_count, so the
    layout repeats every ``period`` bytes, and planes z and z + c, with
    c = period // gcd(plane_pitch, period), start at the same residue. So
    only the first min(planes, c) planes are visited, plane z weighted by
    the ceil((planes - z) / c) planes it stands for. Each visited plane is
    counted by whichever of two exact walks takes fewer steps:

    - the row walk, when the plane spans at least as many stripes as it has
      row residues. The bytes of [0, x) in zone z are x // period * stripe
      + clamp(x % period - z * stripe, 0, stripe), and a run adds that at
      its end minus that at its start. Summed over every run end (+) and
      start (-), a zone gets a stripe for each whole period, a stripe for
      each offset whose stripe lies above it, and the bytes of the offsets
      inside its own stripe. A run's share of those sums depends only on
      its start modulo the period, and rows y and y + c, with c = period //
      gcd(row_pitch, period), start at the same residue; so only the first
      min(rows, c) rows are visited, row y weighted by the ceil((rows - y)
      / c) rows it stands for.
    - the stripe walk, when the stripe is wide against the row pitch and
      the plane's extent ``(rows - 1) * row_pitch + length`` spans fewer
      stripes than that. The plane's bytes below address x are y * length
      + min(r, length), with y, r = divmod(x - start, row_pitch), at most
      rows * length; each spanned stripe adds those below its end minus
      those below its start to its zone.
    """
    length, rows, planes = shape
    row_pitch, plane_pitch = pitches
    stripe = 1 << low_bit
    period = zone_count << low_bit
    mask = stripe - 1
    row_cycle = period // gcd(row_pitch, period)
    plane_cycle = period // gcd(plane_pitch, period)
    row_steps = min(rows, row_cycle)
    extent = (rows - 1) * row_pitch + length
    plane_bytes = rows * length
    out = [0] * zone_count  # the stripe walk's bytes, counted directly
    periods = 0
    offsets = [0] * zone_count  # signed count of offsets in each stripe
    partial = [0] * zone_count  # their signed bytes into that stripe
    for z in range(min(planes, plane_cycle)):
        plane = first + z * plane_pitch
        plane_count = -(-(planes - z) // plane_cycle)
        k0, k1 = plane >> low_bit, (plane + extent - 1) >> low_bit
        if k1 - k0 < row_steps - 1:
            below = 0  # the plane's bytes below the current stripe
            for k in range(k0, k1 + 1):
                y, r = divmod(((k + 1) << low_bit) - plane, row_pitch)
                end = min(y * length + min(r, length), plane_bytes)
                out[k % zone_count] += plane_count * (end - below)
                below = end
            continue
        for y in range(row_steps):
            count = plane_count * -(-(rows - y) // row_cycle)
            start = (plane + y * row_pitch) % period
            end = start + length
            periods += count * (end // period)
            k = (end >> low_bit) % zone_count
            offsets[k] += count
            partial[k] += count * (end & mask)
            k = start >> low_bit
            offsets[k] -= count
            partial[k] -= count * (start & mask)
    above = 0
    for zone in reversed(range(zone_count)):
        out[zone] += (periods + above) * stripe + partial[zone]
        above += offsets[zone]
    return out


class _CtileTable:
    """One descriptor's C-tiles for one placement search.

    The C-tiles' CTAs and D-tiles come from a ``TileTable``; the bytes each
    D-tile places in each zone are counted from its geometry (first byte,
    clipped extents, row and plane pitch), never from byte runs, by the row
    walk or the stripe walk of ``_zone_bytes_of_dtile``, whichever visits
    fewer steps. They are worked out once per low_bit, and within one
    low_bit once per key: the D-tile's clipped extents and its first byte
    modulo the stripe period ``zone_count << low_bit``. The placement
    search asks for ``homes`` once per distinct partition of the top
    descriptor.

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
        ds, d = desc.data, desc.tiles.dtile_dims
        elem, (lenx, leny, lenz) = ds.elem_size, ds.dims
        self._pitches = (lenx * elem, leny * lenx * elem)
        # per C-tile: its D-tile's (run length in bytes, rows, planes) and first byte
        self._dtiles = []
        for dtile in self.tiles.dtiles:
            x0, y0, z0 = (c * n for c, n in zip(dtile.coords, d))
            shape = (min(d[0], lenx - x0) * elem, min(d[1], leny - y0), min(d[2], lenz - z0))
            first = ds.base_addr + ((z0 * leny + y0) * lenx + x0) * elem
            self._dtiles.append((shape, first))
        self._zone_bytes: dict[int, list[list[int]]] = {}

    def zone_bytes(self, low_bit: int) -> list[list[int]]:
        """Per C-tile, the bytes of its D-tile in each zone."""
        if low_bit not in self._zone_bytes:
            period = self.zone_count << low_bit
            by_key: dict[tuple, list[int]] = {}
            out = []
            for shape, first in self._dtiles:
                key = (shape, first % period)
                if key not in by_key:
                    by_key[key] = _zone_bytes_of_dtile(
                        key[1], shape, self._pitches, low_bit, self.zone_count
                    )
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


@dataclass
class _PartitionFit:
    """Every descriptor fitted to one CTA partition of the placement search.

    ``homes[i]`` is descriptor i's C-tile zones under the partition,
    ``bits`` the low bit fitted for each structure other than the top
    descriptor's, and ``terms[i - 1]`` descriptor i's weighted utility at
    its structure's bit, or None where that structure is the top
    descriptor's, which keeps the candidate's own bit.
    """

    homes: list[list[int]]
    bits: dict[str, int]
    terms: list[float | None]


def _fit_partition(
    descs: list[LocalityDescriptor], tables: list[_CtileTable], part: dict[int, int]
) -> _PartitionFit:
    n = len(descs)
    top = descs[0].data.name
    homes = [table.homes(part) for table in tables]
    bits: dict[str, int] = {}
    terms: list[float | None] = []
    for i in range(1, n):
        weight = n - i  # alg position i+1 -> weight n - (i+1) + 1
        table, name = tables[i], descs[i].data.name
        if name == top:
            terms.append(None)
            continue
        if name not in bits:  # max() keeps the first, so the lowest bit
            bits[name] = max(
                range(LOW_BIT_MIN, LOW_BIT_MAX + 1),
                key=lambda b: table.util(weight, homes[i], b),
            )
        terms.append(table.util(weight, homes[i], bits[name]))
    return _PartitionFit(homes, bits, terms)


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

    Candidate bits often yield the same partition, so the structures are
    fitted once per distinct partition; only the top descriptor's own
    utility, and that of a later descriptor over its structure, are worked
    out per candidate bit.
    """
    n = len(descs)
    tables = [_CtileTable(d, grid, zone_count) for d in descs]
    fits: dict[tuple[int, ...], _PartitionFit] = {}
    plans = []
    for b_hi in range(LOW_BIT_MIN, LOW_BIT_MAX + 1):
        part = tables[0].partition(b_hi)
        key = tuple(part.values())  # every candidate inserts the CTAs in one order
        if key not in fits:
            fits[key] = _fit_partition(descs, tables, part)
        fit = fits[key]
        util = tables[0].util(n, fit.homes[0], b_hi)
        added = 0.0
        for i, term in enumerate(fit.terms, 1):
            added += tables[i].util(n - i, fit.homes[i], b_hi) if term is None else term
        chosen = {descs[0].data.name: b_hi, **fit.bits}
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
