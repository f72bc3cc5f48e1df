"""Zone mapping, CTA partitioning, the placement search and its baselines."""

import hashlib
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldesc_sim import grid as grid_mod
from ldesc_sim import (
    CtaGrid,
    baseline_first_touch,
    numa,
    place_and_partition,
    zone_of_address,
)
from ldesc_sim.config import load_config
from ldesc_sim.descriptor import PAGE_SIZE, ctile_count, validate_descriptor_set
from ldesc_sim.grid import ByteRun, TileTable, dtile_byte_runs
from ldesc_sim.numa import (
    LOW_BIT_MAX,
    LOW_BIT_MIN,
    bitrange,
    first_touch,
    xor_hash,
)

import oracles
from conftest import make_desc

KB = 1024


def four_tile_desc(base=0, name="a", priority=0):
    # 64 KiB structure in four 16 KiB column tiles, one CTA per tile.
    return make_desc(
        name=name,
        base=base,
        elem=4,
        data_dims=(16 * KB, 1, 1),
        dtile=(4 * KB, 1, 1),
        ctile=(1, 1, 1),
        cdmap=(1, 0, 0),
        priority=priority,
    )


GRID4 = CtaGrid((4, 1, 1))


def test_zone_of_address_bitrange():
    m = bitrange(14, 4)
    assert zone_of_address(0x0, m, 4) == 0
    assert zone_of_address(0x4000, m, 4) == 1
    assert zone_of_address(0xC000, m, 4) == 3


def test_zone_of_address_xor_rule():
    m = xor_hash(4)
    rng = random.Random(1)
    for _ in range(100):
        a = rng.randrange(0, 1 << 30)
        expect = ((a >> 7) ^ (a >> 9) ^ (a >> 11)) % 4
        assert zone_of_address(a, m, 4) == expect


def test_unplaced_page_raises():
    # A first-touch mapping has no address rule, and the reference lookup
    # of its page table raises for a page that nothing has touched.
    m = first_touch(4)
    with pytest.raises(ValueError, match="page_table"):
        zone_of_address(0x10000, m, 4)
    with pytest.raises(oracles.UnplacedPage):
        oracles.zone_of_address(0x10000, m, 4)


# The per-bit rules of the search, worked out by hand, against the
# reference's partition and utility helpers.
def test_numa_part_aligned_tiles():
    part = oracles.affinity_partition(four_tile_desc(), 14, GRID4, 4)
    assert part == {0: 0, 1: 1, 2: 2, 3: 3}


def test_numa_part_low_bit_16_all_zone0():
    part = oracles.affinity_partition(four_tile_desc(), 16, GRID4, 4)
    assert part == {0: 0, 1: 0, 2: 0, 3: 0}


def test_numa_part_tie_lowest_zone():
    # One 32 KiB tile split evenly between zones 0 and 1 at 16 KiB stripes.
    desc = make_desc(
        elem=4, data_dims=(8 * KB, 1, 1), dtile=(8 * KB, 1, 1), ctile=(1, 1, 1),
        cdmap=(1, 0, 0),
    )
    part = oracles.affinity_partition(desc, 14, CtaGrid((1, 1, 1)), 2)
    assert part == {0: 0}


def test_comp_util_perfectly_local():
    desc = four_tile_desc()
    part = oracles.affinity_partition(desc, 14, GRID4, 4)
    assert oracles.local_utility(3, desc, part, 14, GRID4, 4) == pytest.approx(3.0)


def test_comp_util_fully_remote():
    desc = make_desc(
        elem=4, data_dims=(8 * KB, 1, 1), dtile=(4 * KB, 1, 1), ctile=(1, 1, 1),
        cdmap=(1, 0, 0),
    )
    grid = CtaGrid((2, 1, 1))
    wrong = {0: 1, 1: 0}  # each C-tile sent to the other zone's stripe
    assert oracles.local_utility(2, desc, wrong, 14, grid, 2) == 0.0


def test_comp_util_half_local():
    desc = make_desc(
        elem=4, data_dims=(8 * KB, 1, 1), dtile=(8 * KB, 1, 1), ctile=(1, 1, 1),
        cdmap=(1, 0, 0),
    )
    grid = CtaGrid((1, 1, 1))
    assert oracles.local_utility(1, desc, {0: 0}, 14, grid, 2) == pytest.approx(0.5)


def test_comp_util_monotone_in_locality():
    desc = four_tile_desc()
    part = oracles.affinity_partition(desc, 14, GRID4, 4)
    base = oracles.local_utility(1, desc, part, 14, GRID4, 4)
    worse = dict(part)
    worse[2] = 3  # degrade one C-tile's locality
    assert oracles.local_utility(1, desc, worse, 14, GRID4, 4) < base


def test_place_and_partition_single_descriptor():
    plan = place_and_partition([four_tile_desc()], GRID4, 4)
    assert plan.per_structure["a"].low_bit == 14
    assert plan.utility == pytest.approx(1.0)
    assert sorted(plan.cta_partition.values()) == [0, 1, 2, 3]
    assert not plan.balance_guard_failed


def test_place_and_partition_identical_structures_share_bit():
    # 1 MiB apart, so every candidate bit aliases the two structures the
    # same way; the fitted bit must match the searched bit.
    a = four_tile_desc(name="a", priority=0)
    b = four_tile_desc(base=1 << 20, name="b", priority=1)
    plan = place_and_partition([a, b], GRID4, 4)
    assert plan.per_structure["a"].low_bit == plan.per_structure["b"].low_bit == 14
    assert plan.utility == pytest.approx(2.0 + 1.0)


def test_place_and_partition_single_zone_trivial():
    descs = [
        four_tile_desc(name="a", priority=0),
        four_tile_desc(base=1 << 20, name="b", priority=1),
    ]
    plan = place_and_partition(descs, GRID4, 1)
    assert set(plan.cta_partition.values()) == {0}
    assert plan.utility == pytest.approx(2 + 1)


def test_balance_guard_rejects_skewed_candidates():
    # low_bit 15 and 16 also reach utility 1.0 on the four-tile layout but
    # would pile 2 or 4 of the 4 CTAs into too few zones; the guard leaves
    # low_bit 14 as the winner with one CTA per zone.
    plan = place_and_partition([four_tile_desc()], GRID4, 4)
    loads = [0, 0, 0, 0]
    for z in plan.cta_partition.values():
        loads[z] += 1
    assert max(loads) == 1


def test_balance_guard_fallback_flag():
    # A single C-tile maps every CTA to one zone for every candidate bit,
    # so the guard rejects everything and the unguarded best is returned.
    desc = make_desc(
        elem=4, data_dims=(16 * KB, 1, 1), dtile=(16 * KB, 1, 1), ctile=(4, 1, 1),
        cdmap=(1, 0, 0),
    )
    plan = place_and_partition([desc], GRID4, 4)
    assert plan.balance_guard_failed
    assert set(plan.cta_partition.values()) == {0}


def test_place_and_partition_majority_ties_go_to_the_lowest_zone():
    # 8x1 grid on 4 zones. "a" is 2 KiB in eight 256 B D-tiles, one CTA each;
    # "b" is 512 B at 64 KiB in two 256 B D-tiles, C-tile j holding CTAs
    # 4j..4j+3. Worked out by hand from README's rules:
    #  b_hi 7: each D-tile of "a" splits evenly over zones 2k % 4 and
    #    2k % 4 + 1, so ties put its CTA in zone 0 or 2: 4 CTAs in a zone
    #    whose ideal load is 2, rejected. b_hi >= 10 puts 4 or more CTAs in
    #    zone 0, rejected too.
    #  b_hi 8: D-tile k is stripe k, so CTA k sits in zone k % 4 and "a"
    #    scores 2 x 1.0. Each C-tile of "b" holds one CTA in every zone: a
    #    four-way tie, so both go to zone 0. b's 512 B lie in zone 0 at
    #    low bits 9..14 (128 B at 7, 256 B at 8, none at 15 and 16), so "b"
    #    takes bit 9 and scores 1 x 1.0: 3.0 in all.
    #  b_hi 9: CTAs sit in zones 0,0,1,1,2,2,3,3, and "a" scores 2.0. The
    #    C-tiles of "b" tie between zones 0 and 1 and between 2 and 3, so
    #    they go to zones 0 and 2, where at most half of b's bytes can be
    #    local: 2.5.
    # Ties that went to the highest zone would pick b_hi 9 (2.5 against
    # 2.25 at b_hi 8), with "b" at bit 7.
    grid = CtaGrid((8, 1, 1))
    a = make_desc(name="a", data_dims=(512, 1, 1), dtile=(64, 1, 1), ctile=(1, 1, 1),
                  cdmap=(1, 0, 0), priority=0)
    b = make_desc(name="b", base=1 << 16, data_dims=(128, 1, 1), dtile=(64, 1, 1),
                  ctile=(4, 1, 1), cdmap=(1, 0, 0), priority=1)
    plan = place_and_partition(validate_descriptor_set([a, b], grid), grid, 4)
    assert [plan.cta_partition[flat] for flat in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert {name: m.low_bit for name, m in plan.per_structure.items()} == {"a": 8, "b": 9}
    assert plan.utility == 3.0
    assert not plan.balance_guard_failed


def test_place_and_partition_zone_byte_ties_go_to_the_lowest_zone():
    # 2x1 grid on 4 zones; "a" is 48x2 fp32 (192 B rows) at 0 in two 24x2
    # D-tiles, one CTA each. D-tile 0 is [0, 96) and [192, 288), D-tile 1
    # [96, 192) and [288, 384). Worked out by hand from README's rules:
    #  b_hi 7 (128 B stripes): D-tile 0 places 96/64/32 B in zones 0/1/2,
    #    D-tile 1 32/64/96 B, so the CTAs sit in zones 0 and 2 and 96 + 96
    #    of the 384 B are local: 0.5.
    #  b_hi 8 (256 B stripes): D-tile 0 places 160 B in zone 0 and 32 B in
    #    zone 1; D-tile 1 places 96 B in zone 0 and 96 B in zone 1, a tie
    #    that sends its CTA to zone 0 too. Two CTAs in zone 0, whose ideal
    #    load is 1, fail the 125% guard.
    #  b_hi >= 9: all 384 B lie in zone 0, and so do both CTAs: rejected.
    # Ties that went to the highest zone would keep bit 8, with CTAs in
    # zones 0 and 1 and 160 + 96 B local: 2/3.
    grid = CtaGrid((2, 1, 1))
    desc = make_desc(elem=4, data_dims=(48, 2, 1), dtile=(24, 2, 1), ctile=(1, 1, 1),
                     cdmap=(1, 2, 0))
    plan = place_and_partition(validate_descriptor_set([desc], grid), grid, 4)
    assert [plan.cta_partition[flat] for flat in range(2)] == [0, 2]
    assert plan.per_structure["a"].low_bit == 7
    assert plan.utility == 0.5
    assert not plan.balance_guard_failed


def test_later_descriptor_over_the_top_structure_takes_each_candidates_bit():
    # The top descriptor's one 16 KiB D-tile feeds all four CTAs, so every
    # candidate bit gives one partition, all CTAs in zone 0, and the guard
    # fails. The fraction of the structure in zone 0 is 1/4 at bits 7..12,
    # 1/2 at 13 and 1 at 14..16; both descriptors' C-tiles sit in zone 0, so
    # candidate b scores (2 + 1) x that fraction, and bit 14 wins with 3.0.
    # Taking the later descriptor's term from the partition's first
    # candidate, bit 7, would score 2 + 1/4 there.
    top = make_desc(name="a", elem=4, data_dims=(4 * KB, 1, 1), dtile=(4 * KB, 1, 1),
                    ctile=(4, 1, 1), cdmap=(1, 0, 0), priority=0)
    later = make_desc(name="a", elem=4, data_dims=(4 * KB, 1, 1), dtile=(KB, 1, 1),
                      ctile=(1, 1, 1), cdmap=(1, 0, 0), priority=1)
    plan = place_and_partition(validate_descriptor_set([top, later], GRID4), GRID4, 4)
    assert plan.per_structure["a"].low_bit == 14
    assert plan.utility == 3.0
    assert plan.balance_guard_failed


def random_two_desc_instance(rng):
    """Two descriptors on 4 or 8 CTAs, in a row or in two rows, and 2 or 4
    zones. The first descriptor has one CTA per C-tile, the second 1, 2 or
    4 CTAs along X. Each structure is 1-D, in D-tiles of 1 to 16 KiB, or
    2-D, in D-tiles whose last column and last row are clipped."""
    zone_count = rng.choice([2, 4])
    gx, gy = rng.choice([(4, 1), (8, 1), (2, 2), (4, 2)])
    grid = CtaGrid((gx, gy, 1))
    cdmap = (1, 2, 0) if gy == 1 else rng.choice([(1, 2, 0), (2, 1, 0)])
    descs = []
    for i, width in enumerate([1, rng.choice([w for w in (1, 2, 4) if w <= gx])]):
        dims, dtile = random_structure(rng, -(-gx // width) * gy)
        descs.append(make_desc(name=f"s{i}", base=i << 21, elem=4, data_dims=dims,
                               dtile=dtile, ctile=(width, 1, 1), cdmap=cdmap, priority=i))
    return validate_descriptor_set(descs, grid), grid, zone_count


def random_structure(rng, tiles):
    """A fp32 structure's dims and a D-tile shape that cuts it into ``tiles``
    D-tiles: 1-D, in D-tiles of 1 to 16 KiB, or 2-D, in D-tiles whose last
    column and last row are clipped."""
    if rng.random() < 0.5:
        elems = rng.choice([1, 2, 4, 8, 16]) * KB // 4
        return (elems * tiles, 1, 1), (elems, 1, 1)
    tx = rng.choice([t for t in (1, 2, 4) if tiles % t == 0])
    dtile = (rng.randint(8, 512), rng.randint(2, 16), 1)
    # one D-tile along an axis spans it whole; more leave the last clipped
    dims = tuple(
        (n - 1) * d + (rng.randint(1, d) if n > 1 else d)
        for n, d in zip((tx, tiles // tx, 1), dtile)
    )
    return dims, dtile


def dtile_over(rng, dims, tiles):
    """A D-tile shape that cuts the 1-D or 2-D structure ``dims`` into
    ``tiles`` D-tiles, or None if no shape does. A side d cuts n elements
    into m tiles when (m - 1) * d < n <= m * d."""
    def sides(n, m):
        return range(-(-n // m), n + 1 if m == 1 else -(-n // (m - 1)))

    options = [
        (sides(dims[0], tx), sides(dims[1], tiles // tx))
        for tx in (1, 2, 4, 8) if tiles % tx == 0
    ]
    options = [(xs, ys) for xs, ys in options if xs and ys]
    if not options:
        return None
    xs, ys = rng.choice(options)
    return (rng.choice(xs), rng.choice(ys), 1)


def random_shared_structure_instance(rng):
    """Two or three descriptors on 4 or 8 CTAs and 2 or 4 zones, where a
    later descriptor often reads the top structure or an earlier fitted one.
    Each descriptor has its own C-tile width (1, 2 or 4 CTAs along X) and its
    own D-tile shape over its structure, pairing 1:1 with its C-tiles."""
    zone_count = rng.choice([2, 4])
    gx, gy = rng.choice([(4, 1), (8, 1), (2, 2), (4, 2)])
    grid = CtaGrid((gx, gy, 1))
    cdmap = (1, 2, 0) if gy == 1 else rng.choice([(1, 2, 0), (2, 1, 0)])
    structures = {}  # name -> dims, in order of first appearance
    descs = []
    for i in range(rng.choice([2, 3])):
        width = rng.choice([w for w in (1, 2, 4) if w <= gx])
        tiles = -(-gx // width) * gy
        name = rng.choice([*structures, None])
        dtile = name and dtile_over(rng, structures[name], tiles)
        if not dtile:
            name = f"s{len(structures)}"
            structures[name], dtile = random_structure(rng, tiles)
        base = list(structures).index(name) << 21
        descs.append(make_desc(name=name, base=base, elem=4, data_dims=structures[name],
                               dtile=dtile, ctile=(width, 1, 1), cdmap=cdmap, priority=i))
    return validate_descriptor_set(descs, grid), grid, zone_count


def search_plan(descs, grid, zone_count):
    """The search's plan in the shape of ``oracles.placement_plan``."""
    plan = place_and_partition(descs, grid, zone_count)
    return {**plan.to_json(), "balance_guard_failed": plan.balance_guard_failed}


def test_search_matches_brute_force_sample():
    rng = random.Random(17)
    for _ in range(10):
        descs, grid, zone_count = random_two_desc_instance(rng)
        assert search_plan(descs, grid, zone_count) == oracles.placement_plan(
            descs, grid, zone_count)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_search_matches_the_reference_over_shared_structures(rng):
    # A later descriptor over the top structure keeps each candidate's bit,
    # and one over an earlier fitted structure keeps that structure's bit.
    descs, grid, zone_count = random_shared_structure_instance(rng)
    assert search_plan(descs, grid, zone_count) == oracles.placement_plan(
        descs, grid, zone_count)


def two_matrix_instance(n):
    """Two n x n fp32 matrices in 64x64 D-tiles, one CTA per C-tile, on 4
    zones, matrix b traversed transposed: perfbench's place-matrix shape,
    scaled up."""
    grid = CtaGrid((n // 64, n // 64, 1))
    descs = [
        make_desc(name=name, base=i * n * n * 4, elem=4, data_dims=(n, n, 1),
                  dtile=(64, 64, 1), ctile=(1, 1, 1), cdmap=cdmap, priority=i)
        for i, (name, cdmap) in enumerate([("a", (1, 2, 0)), ("b", (2, 1, 0))])
    ]
    return validate_descriptor_set(descs, grid), grid, 4


# sha256 of the plan's JSON export and its balance_guard_failed flag: 1024
# and 2048 pinned when the search still counted zone bytes from byte runs,
# 4096 when it still counted every D-tile row by row and fitted every
# candidate bit on its own.
TWO_MATRIX_PLAN_DIGESTS = {
    1024: "db70a6e781087fe67dd1c3b1ffe58b16166aab5d5134f00a4efcd0f87a6adcef",
    2048: "54910bf60136b37a3c2f05c906af6115326af8d0f601acd1a02bd7a625b57ac9",
    4096: "a0248c42ec133c1eebb6128cb5fa381b7360e70824a7476c015699bf2feae777",
}


@pytest.mark.parametrize("n", sorted(TWO_MATRIX_PLAN_DIGESTS))
def test_scaled_two_matrix_plans_are_pinned(n):
    # A D-tile row is 256 B and the row pitch 4n B, so below the top low
    # bits the stripe period spans fewer rows than a D-tile's 64: the count
    # visits a few rows and weights each by the rows it stands for.
    plan = place_and_partition(*two_matrix_instance(n))
    blob = json.dumps([plan.to_json(), plan.balance_guard_failed], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == TWO_MATRIX_PLAN_DIGESTS[n]


def test_search_builds_no_byte_runs(monkeypatch):
    # The search counts zone bytes from each D-tile's geometry; only access
    # generation reads byte runs.
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "matrix.json")
    runs_of = grid_mod.dtile_byte_runs
    calls = []

    def counting(dtile, desc):
        calls.append(desc.data.name)
        return runs_of(dtile, desc)

    monkeypatch.setattr(grid_mod, "dtile_byte_runs", counting)
    place_and_partition(cfg.descs, cfg.grid, cfg.system.zone_count)
    assert calls == []


def zone_byte_calls(monkeypatch, descs, grid, zone_count):
    """The low bit of each ``_zone_bytes_of_dtile`` call one search makes."""
    zone_bytes_of = numa._zone_bytes_of_dtile
    calls = []

    def counting(first, shape, pitches, low_bit, zone_count):
        calls.append(low_bit)
        return zone_bytes_of(first, shape, pitches, low_bit, zone_count)

    monkeypatch.setattr(numa, "_zone_bytes_of_dtile", counting)
    place_and_partition(descs, grid, zone_count)
    monkeypatch.undo()
    return calls


def test_search_works_out_zone_bytes_once_per_key(monkeypatch):
    # D-tiles whose clipped extents, row and plane pitches and first bytes
    # modulo the stripe are equal share one zone-byte count per low bit,
    # across descriptors too: a D-tile further on by whole stripes has the
    # same bytes in zones rotated by those stripes.
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "matrix.json")
    zone_count = cfg.system.zone_count
    calls = zone_byte_calls(monkeypatch, cfg.descs, cfg.grid, zone_count)
    keys = set()
    for desc in cfg.descs:
        table = TileTable(desc, cfg.grid)
        dims, d, elem = desc.data.dims, desc.tiles.dtile_dims, desc.data.elem_size
        pitches = (dims[0] * elem, dims[0] * dims[1] * elem)
        for low_bit in range(LOW_BIT_MIN, LOW_BIT_MAX + 1):
            for dtile in table.dtiles:
                x, y, z = (min(d[i], dims[i] - dtile.coords[i] * d[i]) for i in range(3))
                first = dtile_byte_runs(dtile, desc)[0].start
                keys.add((low_bit, (x * elem, y, z), pitches, first % (1 << low_bit)))
    ctiles = ctile_count(cfg.descs[0], cfg.grid)
    bound = ctiles[0] * ctiles[1] * ctiles[2] * (LOW_BIT_MAX - LOW_BIT_MIN + 1) * len(cfg.descs)
    assert 0 < len(calls) == len(keys) < bound
    # perfbench's place-matrix shape; counting once per descriptor and first
    # byte modulo the stripe period made 108 calls
    assert len(zone_byte_calls(monkeypatch, *two_matrix_instance(256))) == 32


def test_search_fits_each_distinct_partition_once(monkeypatch):
    # Candidate bits that give the top descriptor one partition share one
    # fit: every later descriptor's C-tile homes are worked out once per
    # distinct partition, not once per candidate. The top descriptor's homes
    # are its C-tiles' own zones.
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "matrix.json")
    zone_count = cfg.system.zone_count
    homes_of = numa._CtileTable.homes
    calls = []

    def counting(table, part):
        calls.append(table.tiles.desc.data.name)
        return homes_of(table, part)

    monkeypatch.setattr(numa._CtileTable, "homes", counting)
    place_and_partition(cfg.descs, cfg.grid, zone_count)
    bits = range(LOW_BIT_MIN, LOW_BIT_MAX + 1)
    partitions = {
        tuple(sorted(oracles.affinity_partition(cfg.descs[0], b, cfg.grid, zone_count).items()))
        for b in bits
    }
    assert len(partitions) < len(bits)
    assert len(calls) == len(partitions) * (len(cfg.descs) - 1)
    assert set(calls) == {d.data.name for d in cfg.descs[1:]}


def wide_stripe_3d_instance():
    """A 3-D structure whose 256 B row pitch is far below the wide stripes
    of the top low bits, with D-tiles clipped along every axis, on 4 zones."""
    desc = make_desc(base=PAGE_SIZE, elem=4, data_dims=(64, 48, 6), dtile=(48, 20, 4),
                     ctile=(1, 1, 1), cdmap=(1, 2, 3))
    grid = CtaGrid((2, 3, 2))
    return validate_descriptor_set([desc], grid), grid, 4


def stripe_end_instance():
    """A 2-D byte structure with a 1000 B row pitch whose first D-tile, 9
    rows of 193 B, ends on the first byte of an 8 KiB stripe, on 4 zones."""
    desc = make_desc(base=PAGE_SIZE, elem=1, data_dims=(1000, 18, 1), dtile=(193, 9, 1),
                     ctile=(1, 1, 1), cdmap=(1, 2, 0))
    grid = CtaGrid((6, 2, 1))
    return validate_descriptor_set([desc], grid), grid, 4


def stripe_walk_runs(shape, first, pitches, low_bit, zone_count):
    """Whether a D-tile's first plane spans fewer stripes than it has row
    residues, so that its zone bytes are counted stripe by stripe."""
    length, rows, _ = shape
    period = zone_count << low_bit
    stripes = ((first + (rows - 1) * pitches[0] + length - 1) >> low_bit) - (first >> low_bit) + 1
    return stripes < min(rows, period // math.gcd(pitches[0], period))


@pytest.mark.parametrize(
    "instance",
    [lambda: two_matrix_instance(512), wide_stripe_3d_instance, stripe_end_instance],
    ids=["two-matrix-512", "wide-stripe-3d", "stripe-end"],
)
def test_both_zone_byte_walks_match_the_run_count(instance):
    descs, grid, zone_count = instance()
    walks = set()
    for desc in descs:
        table = numa._CtileTable(desc, grid, zone_count, {})
        for low_bit in range(LOW_BIT_MIN, LOW_BIT_MAX + 1):
            got = table.zone_bytes(low_bit)
            period = zone_count << low_bit
            seen = set()
            for k, (first, shape, pitches) in enumerate(table._dtiles):
                if (shape, first % period) in seen:
                    continue
                seen.add((shape, first % period))
                walks.add(stripe_walk_runs(shape, first, pitches, low_bit, zone_count))
                assert got[k] == oracles.zone_bytes_of_runs(table.tiles.runs(k), low_bit, zone_count)
    assert walks == {False, True}


@st.composite
def clipped_structure(draw):
    """A valid 1-D, 2-D or 3-D descriptor whose used axes are not multiples
    of the D-tile's, so that the last D-tile along each is clipped; one
    C-tile per D-tile, one CTA per C-tile."""
    ndim = draw(st.integers(1, 3))
    # power-of-two rows often start on stripe boundaries, so keys repeat
    aligned_x = draw(st.sampled_from([None, 32, 128, 1024]))
    dtile = [
        aligned_x or draw(st.integers(2, 600)),
        draw(st.integers(2, 12)) if ndim > 1 else 1,
        draw(st.integers(2, 4)) if ndim > 2 else 1,
    ]
    counts = [draw(st.integers(2, 3)) if axis < ndim else 1 for axis in range(3)]
    dims = [
        (m - 1) * d + draw(st.integers(1, d - 1)) if axis < ndim else 1
        for axis, (m, d) in enumerate(zip(counts, dtile))
    ]
    desc = make_desc(
        base=draw(st.integers(0, 3)) * PAGE_SIZE,
        elem=draw(st.sampled_from([1, 2, 4, 8])),
        data_dims=tuple(dims),
        dtile=tuple(dtile),
        ctile=(1, 1, 1),
        cdmap=(1, 2, 3),
    )
    grid = CtaGrid(tuple(counts))
    return validate_descriptor_set([desc], grid)[0], grid


@st.composite
def pitched_structure(draw):
    """A valid 2-D or 3-D descriptor whose row and plane pitches are a power
    of two or three times one, with up to 3 D-tiles along each axis (the
    last often clipped). At the small low bits the stripe period spans a
    few rows (or planes), so a D-tile's rows repeat their start modulo the
    period and the count from geometry weights each row it visits by more
    than one. One C-tile per D-tile, one CTA per C-tile."""
    ndim = draw(st.integers(2, 3))

    def side(low, high):
        return draw(st.sampled_from([1, 3])) << draw(st.integers(low, high))

    dims = (side(2, 7), side(3, 6), side(1, 2) if ndim > 2 else 1)
    dtile = tuple(draw(st.integers(-(-n // 3), n)) for n in dims)
    desc = make_desc(
        base=draw(st.integers(0, 3)) * PAGE_SIZE,
        elem=draw(st.sampled_from([1, 2, 4, 8])),
        data_dims=dims,
        dtile=dtile,
        ctile=(1, 1, 1),
        cdmap=(1, 2, 3),
    )
    grid = CtaGrid(tuple(-(-n // d) for n, d in zip(dims, dtile)))
    return validate_descriptor_set([desc], grid)[0], grid


@settings(max_examples=160, deadline=None)
@given(st.one_of(clipped_structure(), pitched_structure()), st.sampled_from([1, 2, 4, 8]))
def test_zone_bytes_per_key_match_per_ctile_count(case, zone_count):
    desc, grid = case
    table = numa._CtileTable(desc, grid, zone_count, {})
    for low_bit in range(LOW_BIT_MIN, LOW_BIT_MAX + 1):
        got = table.zone_bytes(low_bit)
        for k in range(len(table.tiles.dtiles)):
            runs = table.tiles.runs(k)
            assert got[k] == oracles.zone_bytes_of_runs(runs, low_bit, zone_count)


@st.composite
def shifted_pair(draw):
    """Two 2-D structures of one element size cut into the same gx x gy
    D-tiles, one CTA per C-tile, on 2, 4 or 8 zones. "a" lies at 0 and "b"
    an odd number of 64 KiB pages past 2 MiB: that is not a multiple of the
    stripe period at the top low bits, so there b's D-tiles sit at a's
    offsets inside the stripe but in other zones. In about half the draws
    b's rows are longer than a's, so the D-tiles of its first row, but for
    the last, have a's extents and offsets under another row pitch."""
    gx, gy = draw(st.sampled_from([(2, 1), (2, 2), (4, 1), (4, 2), (2, 3)]))
    dx, dy = draw(st.integers(8, 96)), draw(st.integers(2, 6))
    ax = (gx - 1) * dx + draw(st.integers(1, dx))
    bx = ax if draw(st.booleans()) else (gx - 1) * dx + draw(st.integers(1, dx))
    rows = (gy - 1) * dy + draw(st.integers(1, dy)) if gy > 1 else dy
    elem = draw(st.sampled_from([1, 4, 8]))
    shift = (draw(st.integers(0, 15)) * 2 + 1) * PAGE_SIZE
    grid = CtaGrid((gx, gy, 1))
    descs = [
        make_desc(name=name, base=base, elem=elem, data_dims=(x, rows, 1), dtile=(dx, dy, 1),
                  ctile=(1, 1, 1), cdmap=(1, 2, 0), priority=i)
        for i, (name, base, x) in enumerate([("a", 0, ax), ("b", (2 << 20) + shift, bx)])
    ]
    return validate_descriptor_set(descs, grid), grid, draw(st.sampled_from([2, 4, 8]))


@settings(max_examples=60, deadline=None)
@given(shifted_pair())
def test_zone_bytes_shared_across_descriptors_match_the_run_count(instance):
    # One search's tables share the zone-byte counts by offset inside the
    # stripe: b's D-tiles take a's counts rotated to their own stripes, and
    # only where their pitches match a's.
    descs, grid, zone_count = instance
    counts = {}
    tables = [numa._CtileTable(desc, grid, zone_count, counts) for desc in descs]
    for low_bit in range(LOW_BIT_MIN, LOW_BIT_MAX + 1):
        for table in tables:
            got = table.zone_bytes(low_bit)
            for k in range(len(table.tiles.dtiles)):
                runs = table.tiles.runs(k)
                assert got[k] == oracles.zone_bytes_of_runs(runs, low_bit, zone_count)
    assert search_plan(descs, grid, zone_count) == oracles.placement_plan(
        descs, grid, zone_count)


@given(
    runs=st.lists(
        st.tuples(st.integers(0, 7), st.integers(-2048, 2048), st.integers(1, 2048)),
        min_size=1,
        max_size=3,
    ),
    low_bit=st.integers(LOW_BIT_MIN, LOW_BIT_MAX),
    zone_count=st.sampled_from([1, 2, 4, 8]),
)
def test_zone_bytes_match_per_byte_count(runs, low_bit, zone_count):
    # Runs start near a stripe boundary so that they often cross it.
    byte_runs = [
        ByteRun(max(0, (stripe << low_bit) + offset), length)
        for stripe, offset, length in runs
    ]
    mapping = bitrange(low_bit, zone_count)
    expect = [0] * zone_count
    for run in byte_runs:
        for addr in range(run.start, run.start + run.length):
            expect[zone_of_address(addr, mapping, zone_count)] += 1
    assert oracles.zone_bytes_of_runs(byte_runs, low_bit, zone_count) == expect


def test_first_touch_page_placement():
    grid = CtaGrid((8, 1, 1))
    # CTA 5 sits in zone 2 of 4 contiguous ranges; it touches page 3 first.
    trace = [(5, 3 << 16), (0, 3 << 16)]
    mapping, sched = baseline_first_touch(grid, 4, trace, 8)
    assert oracles.zone_of_address(3 << 16, mapping, 4) == 2
    assert sched.assignment[5] // 2 == 2  # CTA 5's SM is in zone 2


def test_first_touch_run_ahead_skew():
    grid = CtaGrid((8, 1, 1))
    # Zone 0's CTAs run ahead and touch every page first.
    trace = [(0, p << 16) for p in range(16)]
    trace += [(c, p << 16) for c in range(1, 8) for p in range(16)]
    mapping, _ = baseline_first_touch(grid, 4, trace, 8)
    zones = [oracles.zone_of_address(p << 16, mapping, 4) for p in range(16)]
    assert zones == [0] * 16


def test_first_touch_untouched_page():
    mapping, _ = baseline_first_touch(CtaGrid((4, 1, 1)), 4, [], 4)
    assert mapping.page_table == {}
    with pytest.raises(oracles.UnplacedPage):
        oracles.zone_of_address(0xABCDEF, mapping, 4)


def test_bitrange_never_splits_bursts():
    rng = random.Random(23)
    for low_bit in range(LOW_BIT_MIN, LOW_BIT_MAX + 1):
        m = bitrange(low_bit, 4)
        for _ in range(50):
            addr = rng.randrange(0, 1 << 30)
            burst = addr - addr % 128
            zones = {zone_of_address(burst + off, m, 4) for off in (0, 64, 127)}
            assert len(zones) == 1


def test_bitrange_low_bit_bounds():
    with pytest.raises(ValueError):
        bitrange(6, 4)
    with pytest.raises(ValueError):
        bitrange(17, 4)
