"""NUMA zone mapping, CTA partitioning and the placement search.

Data structures are interleaved across zones by a consecutive bit field of
the physical address (BITRANGE), by a fold-XOR hash (the randomizing
baseline), or by first-touch page placement (the 64 KiB paging baseline).
The placement search jointly picks the top descriptor's bit field and the
CTA partition, then fits every remaining structure to that partition, once
per distinct partition. It counts the bytes each D-tile places in each zone
from the tile's geometry and builds no byte runs: one row per residue of
the stripe period, or, when the stripes are wide against the row pitch and
the tile spans fewer of them than that, one stripe at a time. A D-tile
whole stripes further on holds the same bytes in zones rotated by those
stripes, so each count is made once per D-tile shape, pitches and offset
inside the stripe, and every descriptor of the search shares it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import gcd

from .descriptor import PAGE_BITS, LocalityDescriptor, log2_exact
from .grid import CtaGrid, TileTable, _dtile_geometry
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
    modulo the stripe period ``zone_count << low_bit``. A key's count is the
    count of a D-tile of that shape at the first byte's offset inside its
    stripe, rotated by the stripes in front of it; the counts by offset sit
    in ``counts``, which every table of one search shares. The placement
    search asks for ``homes`` once per distinct partition of the top
    descriptor.

    Both keys are exact. Two D-tiles of one descriptor with equal clipped
    extents have byte runs that are translates of each other: each run
    lies at the same offset from the tile's first byte, with the same
    length. Stripe k lives in zone k % zone_count, so the layout repeats
    every period, and a translation by a multiple of the period leaves
    every zone's byte count unchanged; C-tiles with equal keys share one
    (read-only) list. A translation by s whole stripes moves every byte
    from zone z to zone (z + s) % zone_count, so a D-tile at ``first`` has
    the bytes of one at ``first & (stripe - 1)`` rotated by ``(first >>
    low_bit) % zone_count``. That offset's count depends on the low bit,
    the clipped extents and the row and plane pitches, and on nothing that
    tells two descriptors apart, so descriptors with those equal share it.
    """

    def __init__(
        self, desc: LocalityDescriptor, grid: CtaGrid, zone_count: int,
        counts: dict[tuple, list[int]],
    ):
        self.tiles = TileTable(desc, grid)
        self.total = desc.data.total_bytes
        self.zone_count = zone_count
        # per C-tile: its D-tile's first byte, clipped extents and pitches
        self._dtiles = [_dtile_geometry(dtile, desc) for dtile in self.tiles.dtiles]
        # (low bit, clipped extents, pitches, offset in the stripe) -> zone bytes
        self._counts = counts
        self._zone_bytes: dict[int, list[list[int]]] = {}

    def zone_bytes(self, low_bit: int) -> list[list[int]]:
        """Per C-tile, the bytes of its D-tile in each zone."""
        if low_bit not in self._zone_bytes:
            zone_count, counts = self.zone_count, self._counts
            period = zone_count << low_bit
            mask = (1 << low_bit) - 1
            by_key: dict[tuple, list[int]] = {}
            out = []
            for first, shape, pitches in self._dtiles:
                key = (shape, first % period)
                if key not in by_key:
                    offset = first & mask
                    base = (low_bit, shape, pitches, offset)
                    if base not in counts:
                        counts[base] = _zone_bytes_of_dtile(
                            offset, shape, pitches, low_bit, zone_count
                        )
                    zb, r = counts[base], (first >> low_bit) % zone_count
                    by_key[key] = zb[-r:] + zb[:-r]
                out.append(by_key[key])
            self._zone_bytes[low_bit] = out
        return self._zone_bytes[low_bit]

    def partition(self, low_bit: int) -> list[int]:
        """Per C-tile, the zone holding most of its D-tile's bytes (ties to
        the lowest zone): every CTA of the C-tile goes there."""
        return [zb.index(max(zb)) for zb in self.zone_bytes(low_bit)]

    def homes(self, part: dict[int, int]) -> list[int]:
        """Each C-tile's zone: the majority zone of its CTAs under ``part``."""
        return [majority_zone(ctas, part, self.zone_count) for ctas in self.tiles.ctas]

    def util(self, weight: int, homes: list[int], low_bit: int) -> float:
        local = sum(map(list.__getitem__, self.zone_bytes(low_bit), homes))
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


def place_and_partition(
    descs: list[LocalityDescriptor], grid: CtaGrid, zone_count: int
) -> NumaPlan:
    """Search all candidate bit fields for the top descriptor, partition the
    CTAs by data affinity, and fit every other structure to that partition.

    Each remaining structure takes the low bit with the highest utility; a
    structure already placed, the top one included, keeps its bit. Ties go
    to the lowest bit, both for the top descriptor's candidates and for the
    fitted bits. The best candidate whose partition loads no zone past 125%
    of the ideal load wins; should every candidate fail that guard, the best
    candidate overall is returned with ``balance_guard_failed`` set.

    Candidate bits often yield the same partition, so every later
    descriptor's C-tile zones, every other structure's fitted bit and the
    balance guard are worked out once per distinct partition, keyed by the
    top descriptor's per-C-tile zones. Each candidate then sums its
    descriptors' utilities at the bits it chose, and only the winner's
    mappings and plan are built.
    """
    n = len(descs)
    names = [d.data.name for d in descs]
    top = names[0]
    bits = range(LOW_BIT_MIN, LOW_BIT_MAX + 1)
    counts: dict[tuple, list[int]] = {}  # zone bytes by offset, shared by every table
    tables = [_CtileTable(d, grid, zone_count, counts) for d in descs]
    fits: dict[tuple[int, ...], tuple[dict[int, int], bool, list[list[int]], dict[str, int]]] = {}
    candidates = []  # (utility, balanced, partition, chosen bits), one per b_hi
    for b_hi in bits:
        zones = tables[0].partition(b_hi)
        key = tuple(zones)
        if key not in fits:
            part = {flat: zone for ctas, zone in zip(tables[0].tiles.ctas, zones) for flat in ctas}
            # the top descriptor's C-tiles hold all their CTAs in their own zone
            homes = [zones] + [table.homes(part) for table in tables[1:]]
            fitted: dict[str, int] = {}
            for i in range(1, n):  # alg position i+1 -> weight n - (i+1) + 1
                if names[i] != top and names[i] not in fitted:
                    # max() keeps the first, so the lowest bit
                    fitted[names[i]] = max(bits, key=lambda b: tables[i].util(n - i, homes[i], b))
            fits[key] = part, _is_balanced(part, zone_count), homes, fitted
        part, balanced, homes, fitted = fits[key]
        chosen = {top: b_hi, **fitted}
        added = 0.0  # a plain loop: sum() rounds differently on Python 3.12+
        for i in range(1, n):
            added += tables[i].util(n - i, homes[i], chosen[names[i]])
        util = tables[0].util(n, homes[0], b_hi) + added
        candidates.append((util, balanced, part, chosen))
    pool = [c for c in candidates if c[1]]
    # max() keeps the first, so ties go to the lowest bit
    util, balanced, part, chosen = max(pool or candidates, key=lambda c: c[0])
    mappings = {name: bitrange(bit, zone_count) for name, bit in chosen.items()}
    return NumaPlan(part, mappings, util, balance_guard_failed=not balanced)


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
