"""Zone mapping, CTA partitioning, the placement search and its baselines."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldesc_sim import grid as grid_mod
from ldesc_sim import (
    CtaGrid,
    baseline_first_touch,
    comp_util,
    numa,
    numa_part,
    place_and_partition,
    zone_of_address,
)
from ldesc_sim.config import load_config
from ldesc_sim.descriptor import PAGE_SIZE, ctile_count, validate_descriptor_set
from ldesc_sim.errors import UnplacedPage
from ldesc_sim.grid import ByteRun
from ldesc_sim.numa import (
    LOW_BIT_MAX,
    LOW_BIT_MIN,
    bitrange,
    first_touch,
    xor_hash,
)

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
    m = first_touch(4)
    with pytest.raises(UnplacedPage):
        zone_of_address(0x10000, m, 4)


def test_numa_part_aligned_tiles():
    part = numa_part(four_tile_desc(), 14, GRID4, 4)
    assert part == {0: 0, 1: 1, 2: 2, 3: 3}


def test_numa_part_low_bit_16_all_zone0():
    part = numa_part(four_tile_desc(), 16, GRID4, 4)
    assert part == {0: 0, 1: 0, 2: 0, 3: 0}


def test_numa_part_tie_lowest_zone():
    # One 32 KiB tile split evenly between zones 0 and 1 at 16 KiB stripes.
    desc = make_desc(
        elem=4, data_dims=(8 * KB, 1, 1), dtile=(8 * KB, 1, 1), ctile=(1, 1, 1),
        cdmap=(1, 0, 0),
    )
    part = numa_part(desc, 14, CtaGrid((1, 1, 1)), 2)
    assert part == {0: 0}


def test_comp_util_perfectly_local():
    desc = four_tile_desc()
    part = numa_part(desc, 14, GRID4, 4)
    assert comp_util(3, desc, part, 14, GRID4, 4) == pytest.approx(3.0)


def test_comp_util_fully_remote():
    desc = make_desc(
        elem=4, data_dims=(8 * KB, 1, 1), dtile=(4 * KB, 1, 1), ctile=(1, 1, 1),
        cdmap=(1, 0, 0),
    )
    grid = CtaGrid((2, 1, 1))
    wrong = {0: 1, 1: 0}  # each C-tile sent to the other zone's stripe
    assert comp_util(2, desc, wrong, 14, grid, 2) == 0.0


def test_comp_util_half_local():
    desc = make_desc(
        elem=4, data_dims=(8 * KB, 1, 1), dtile=(8 * KB, 1, 1), ctile=(1, 1, 1),
        cdmap=(1, 0, 0),
    )
    grid = CtaGrid((1, 1, 1))
    assert comp_util(1, desc, {0: 0}, 14, grid, 2) == pytest.approx(0.5)


def test_comp_util_monotone_in_locality():
    desc = four_tile_desc()
    part = numa_part(desc, 14, GRID4, 4)
    base = comp_util(1, desc, part, 14, GRID4, 4)
    worse = dict(part)
    worse[2] = 3  # degrade one C-tile's locality
    assert comp_util(1, desc, worse, 14, GRID4, 4) < base


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


def brute_force_best_utility(descs, grid, zone_count):
    """Exhaustive cross-product search over guarded candidates."""
    n = len(descs)
    best = None
    for b_hi in range(LOW_BIT_MIN, LOW_BIT_MAX + 1):
        part = numa_part(descs[0], b_hi, grid, zone_count)
        loads = [0] * zone_count
        for z in part.values():
            loads[z] += 1
        if max(loads) > -(-len(part) // zone_count) * 1.25:
            continue
        util = comp_util(n, descs[0], part, b_hi, grid, zone_count)
        for i in range(1, n):
            util += max(
                comp_util(n - i, descs[i], part, b, grid, zone_count)
                for b in range(LOW_BIT_MIN, LOW_BIT_MAX + 1)
            )
        if best is None or util > best:
            best = util
    return best


def random_two_desc_instance(rng):
    zone_count = rng.choice([2, 4])
    ctas = rng.choice([4, 8])
    grid = CtaGrid((ctas, 1, 1))
    descs = []
    for i in range(2):
        tile_kb = rng.choice([1, 2, 4, 8, 16])
        elems_per_tile = tile_kb * KB // 4
        descs.append(
            make_desc(
                name=f"s{i}",
                base=i << 21,
                elem=4,
                data_dims=(elems_per_tile * ctas, 1, 1),
                dtile=(elems_per_tile, 1, 1),
                ctile=(1, 1, 1),
                cdmap=(1, 0, 0),
                priority=i,
            )
        )
    return descs, grid, zone_count


def test_search_matches_brute_force_sample():
    rng = random.Random(17)
    for _ in range(10):
        descs, grid, zone_count = random_two_desc_instance(rng)
        plan = place_and_partition(descs, grid, zone_count)
        expect = brute_force_best_utility(descs, grid, zone_count)
        if expect is None:
            assert plan.balance_guard_failed
        else:
            assert plan.utility == expect


def test_search_builds_byte_runs_once_per_ctile(monkeypatch):
    # Every (b_hi, descriptor, b_lo) candidate reuses the same D-tile runs.
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "matrix.json")
    runs_of = grid_mod.dtile_byte_runs
    calls = []

    def counting(dtile, desc):
        calls.append(desc.data.name)
        return runs_of(dtile, desc)

    monkeypatch.setattr(grid_mod, "dtile_byte_runs", counting)
    place_and_partition(cfg.descs, cfg.grid, cfg.system.zone_count)
    ctiles = 0
    for desc in cfg.descs:
        c = ctile_count(desc, cfg.grid)
        ctiles += c[0] * c[1] * c[2]
    assert 0 < len(calls) <= ctiles


def test_search_works_out_zone_bytes_once_per_key(monkeypatch):
    # C-tiles whose D-tiles have equal clipped extents and equal first bytes
    # modulo the stripe period share one zone-byte count per low bit.
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "matrix.json")
    zone_bytes_of = numa._zone_bytes_of_runs
    calls = []

    def counting(runs, low_bit, zone_count):
        calls.append(low_bit)
        return zone_bytes_of(runs, low_bit, zone_count)

    monkeypatch.setattr(numa, "_zone_bytes_of_runs", counting)
    place_and_partition(cfg.descs, cfg.grid, cfg.system.zone_count)
    ctiles = ctile_count(cfg.descs[0], cfg.grid)
    bound = ctiles[0] * ctiles[1] * ctiles[2] * (LOW_BIT_MAX - LOW_BIT_MIN + 1) * len(cfg.descs)
    assert 0 < len(calls) < bound


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


@settings(max_examples=100, deadline=None)
@given(clipped_structure(), st.sampled_from([1, 2, 4, 8]))
def test_zone_bytes_per_key_match_per_ctile_count(case, zone_count):
    desc, grid = case
    table = numa._CtileTable(desc, grid, zone_count)
    for low_bit in range(LOW_BIT_MIN, LOW_BIT_MAX + 1):
        got = table.zone_bytes(low_bit)
        for k, runs in enumerate(table.tiles.runs):
            assert got[k] == numa._zone_bytes_of_runs(runs, low_bit, zone_count)


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
    assert numa._zone_bytes_of_runs(byte_runs, low_bit, zone_count) == expect


def test_first_touch_page_placement():
    grid = CtaGrid((8, 1, 1))
    # CTA 5 sits in zone 2 of 4 contiguous ranges; it touches page 3 first.
    trace = [(5, 3 << 16), (0, 3 << 16)]
    mapping, sched = baseline_first_touch(grid, 4, trace, 8)
    assert zone_of_address(3 << 16, mapping, 4) == 2
    assert sched.assignment[5] // 2 == 2  # CTA 5's SM is in zone 2


def test_first_touch_run_ahead_skew():
    grid = CtaGrid((8, 1, 1))
    # Zone 0's CTAs run ahead and touch every page first.
    trace = [(0, p << 16) for p in range(16)]
    trace += [(c, p << 16) for c in range(1, 8) for p in range(16)]
    mapping, _ = baseline_first_touch(grid, 4, trace, 8)
    zones = [zone_of_address(p << 16, mapping, 4) for p in range(16)]
    assert zones == [0] * 16


def test_first_touch_untouched_page():
    mapping, _ = baseline_first_touch(CtaGrid((4, 1, 1)), 4, [], 4)
    with pytest.raises(UnplacedPage):
        zone_of_address(0xABCDEF, mapping, 4)


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
