"""Policy selection, workload synthesis and the simulation's counting metrics."""

import copy
import dataclasses
import functools
import heapq
import io
import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ldesc_sim import (
    AccessEvent,
    CtaGrid,
    InsertionClass,
    LocalityType,
    NumaPlan,
    PrefetchKind,
    SharingType,
    SystemConfig,
    TileTable,
    Workload,
    assign_clusters,
    baseline_round_robin,
    form_clusters,
    generate_accesses,
    normal_policies,
    place_and_partition,
    select_policies,
    simulate,
    validate_descriptor_set,
)
from ldesc_sim import engine as engine_mod
from ldesc_sim import grid as grid_mod
from ldesc_sim.cache import CacheConfig, CacheModel
from ldesc_sim.config import (
    PLACEMENT_NAMES,
    POLICY_NAMES,
    ExperimentConfig,
    compose,
    load_config,
    run_experiment,
)
from ldesc_sim.descriptor import AccessPattern, ctile_count
from ldesc_sim.engine import Latencies, preset
from ldesc_sim.errors import ConfigError, ConfigMismatch, MshrFull
from ldesc_sim.numa import (
    LOW_BIT_MAX,
    LOW_BIT_MIN,
    bitrange,
    distributed_schedule,
    first_touch,
    xor_hash,
)
from ldesc_sim.sched import assign_clusters_by_zone

import oracles
from conftest import make_desc
from oracles import cta_flat, working_set

KB = 1024
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def histo_workload(seed=1):
    desc = make_desc()
    grid = CtaGrid((5, 8, 1))
    return Workload(grid, validate_descriptor_set([desc], grid), seed)


def stripe_workload(tiles=16, tile_kb=16, seed=1):
    grid = CtaGrid((tiles, 1, 1))
    desc = make_desc(
        elem=4,
        data_dims=(tiles * tile_kb * KB // 4, 1, 1),
        dtile=(tile_kb * KB // 4, 1, 1),
        ctile=(1, 1, 1),
        cdmap=(1, 0, 0),
    )
    return Workload(grid, validate_descriptor_set([desc], grid), seed)


# -- select_policies ---------------------------------------------------------


def _ldesc_schedule(d):
    """The schedule, ``clusters`` or ``rr``, that ``compose`` builds for
    policy ``ldesc`` and ``d`` alone on four SMs and a 5x8 grid."""
    grid, sms = CtaGrid((5, 8, 1)), 4
    descs = validate_descriptor_set([d], grid)
    _, _, schedule, _ = compose(ExperimentConfig(SystemConfig(sm_count=sms), grid, descs))
    named = {
        "clusters": assign_clusters(form_clusters(descs, grid, sms), grid, sms),
        "rr": baseline_round_robin(grid, sms),
    }
    (name,) = [k for k, s in named.items() if s.assignment == schedule.assignment]
    return name


def test_policies_coaccessed_regular():
    d = make_desc()
    p = select_policies([d])[0]
    assert _ldesc_schedule(d) == "clusters"
    assert p.insertion is InsertionClass.SOFT_PIN
    assert p.prefetch is PrefetchKind.STRIDE


def test_policies_intra_thread():
    d = make_desc(ltype=LocalityType.INTRA_THREAD)
    p = select_policies([d])[0]
    assert _ldesc_schedule(d) == "rr"
    assert p.insertion is InsertionClass.HARD_PIN
    assert p.prefetch is PrefetchKind.NONE


def test_policies_no_reuse():
    d = make_desc(ltype=LocalityType.NO_REUSE)
    p = select_policies([d])[0]
    assert p.insertion is InsertionClass.BYPASS
    assert p.prefetch is PrefetchKind.NONE


def test_policies_nearby_and_irregular():
    nearby = make_desc(sharing=SharingType.NEARBY)
    irregular = make_desc(pattern=AccessPattern.irregular())
    pol = select_policies([nearby])
    assert pol[0].prefetch is PrefetchKind.NEXTLINE
    pol = select_policies([irregular])
    assert pol[0].prefetch is PrefetchKind.NONE
    assert pol[0].insertion is InsertionClass.SOFT_PIN


# -- generate_accesses -------------------------------------------------------


def test_generate_regular_walk_ascending():
    # One 4 KiB tile at line-size stride: 32 ascending line addresses.
    grid = CtaGrid((1, 1, 1), warps_per_cta=4)
    desc = make_desc(data_dims=(KB, 1, 1), dtile=(KB, 1, 1), ctile=(1, 1, 1), cdmap=(1, 0, 0))
    pairs = generate_accesses(TileTable(desc, grid), 0, seed=1)
    addrs = [a for _, a in pairs]
    assert addrs == list(range(0, 4 * KB, 128))
    assert [w for w, _ in pairs[:5]] == [0, 1, 2, 3, 0]


def test_generate_coaccessed_identical_multisets(histo_desc, histo_grid):
    table = TileTable(histo_desc, histo_grid)
    a = generate_accesses(table, cta_flat((2, 0, 0), histo_grid), seed=1)
    b = generate_accesses(table, cta_flat((2, 7, 0), histo_grid), seed=1)
    assert sorted(x for _, x in a) == sorted(x for _, x in b)


def test_generate_irregular_deterministic():
    desc = make_desc(pattern=AccessPattern.irregular())
    grid = CtaGrid((5, 8, 1))
    table, cta = TileTable(desc, grid), cta_flat((1, 2, 0), grid)
    a = generate_accesses(table, cta, seed=7)
    b = generate_accesses(table, cta, seed=7)
    c = generate_accesses(table, cta, seed=8)
    assert a == b
    assert a != c
    assert sorted(x for _, x in a) == sorted(x for _, x in c)


def test_generate_nearby_windows_overlap_one_line():
    grid = CtaGrid((1, 4, 1), warps_per_cta=1)
    desc = make_desc(
        data_dims=(8 * KB, 1, 1),  # 32 KiB, 256 lines
        dtile=(8 * KB, 1, 1),
        ctile=(1, 4, 1),
        sharing=SharingType.NEARBY,
        cdmap=(1, 0, 0),
    )
    table = TileTable(desc, grid)
    windows = [
        {a for _, a in generate_accesses(table, cta_flat((0, y, 0), grid), 1)}
        for y in range(4)
    ]
    for y in range(3):
        shared = windows[y] & windows[y + 1]
        assert len(shared) == 2  # one line each side of the boundary


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.integers(1, 400),
    st.integers(1, 4),
)
def test_nearby_window_matches_the_code_it_replaced(grid_xy, ctile_xy, dtile_elems, warps):
    grid = CtaGrid((*grid_xy, 1), warps_per_cta=warps)
    ctile = (min(ctile_xy[0], grid_xy[0]), min(ctile_xy[1], grid_xy[1]), 1)
    n = math.prod(ctile_count(make_desc(ctile=ctile), grid))
    # n D-tiles of 1..400 four-byte elements: 1..14 lines for 1..36 CTAs each
    desc = make_desc(
        data_dims=(n * dtile_elems, 1, 1),
        dtile=(dtile_elems, 1, 1),
        ctile=ctile,
        sharing=SharingType.NEARBY,
        cdmap=(1, 2, 3),
    )
    table = TileTable(validate_descriptor_set([desc], grid)[0], grid)
    for k, ctas in enumerate(table.ctas):
        for rank, cta in enumerate(ctas):
            window = oracles.nearby_window(table.lines(k, 128), rank, len(ctas))
            expect = [(i % warps, a) for i, a in enumerate(window)]
            assert generate_accesses(table, cta, 1) == expect


def test_generate_intra_thread_two_passes():
    grid = CtaGrid((1, 1, 1), warps_per_cta=2)
    desc = make_desc(
        ltype=LocalityType.INTRA_THREAD,
        data_dims=(2 * KB, 1, 1),
        dtile=(2 * KB, 1, 1),
        ctile=(1, 1, 1),
        cdmap=(1, 0, 0),
    )
    pairs = generate_accesses(TileTable(desc, grid), 0, seed=1)
    per_warp = {}
    for w, a in pairs:
        per_warp.setdefault(w, []).append(a)
    for w, seq in per_warp.items():
        assert seq == seq[: len(seq) // 2] * 2  # same sub-range twice
    assert set(per_warp[0]) & set(per_warp[1]) == set()  # private ranges


def test_generate_no_reuse_single_pass():
    grid = CtaGrid((2, 1, 1), warps_per_cta=2)
    desc = make_desc(
        ltype=LocalityType.NO_REUSE,
        data_dims=(2 * KB, 1, 1),
        dtile=(KB, 1, 1),
        ctile=(1, 1, 1),
        cdmap=(1, 0, 0),
    )
    pairs = generate_accesses(TileTable(desc, grid), 0, seed=1)
    addrs = [a for _, a in pairs]
    assert len(addrs) == len(set(addrs))  # no repeats


def test_generate_no_reuse_ctile_covers_its_dtile_once():
    # The grid clips the second C-tile to one CTA, which takes its whole D-tile.
    grid = CtaGrid((1, 3, 1), warps_per_cta=2)
    desc = make_desc(ltype=LocalityType.NO_REUSE, data_dims=(2 * KB, 1, 1),
                     dtile=(KB, 1, 1), ctile=(1, 2, 1), cdmap=(0, 1, 0))
    table = TileTable(desc, grid)
    assert [len(ctas) for ctas in table.ctas] == [2, 1]
    for k, ctas in enumerate(table.ctas):
        addrs = [a for cta in ctas for _, a in generate_accesses(table, cta, seed=1)]
        assert sorted(addrs) == list(range(k * 4 * KB, (k + 1) * 4 * KB, 128))


_DESC_KINDS = [
    (LocalityType.INTER_THREAD, SharingType.COACCESSED),
    (LocalityType.INTER_THREAD, SharingType.NEARBY),
    (LocalityType.INTRA_THREAD, None),
    (LocalityType.NO_REUSE, None),
]


@st.composite
def _generation_cases(draw):
    """A grid of 1-8 warps per CTA, one to three descriptors over it and a
    line size. Each descriptor draws its locality type, sharing kind and
    pattern, C-tiles of one or more CTAs, ranked in a drawn order, and 1-D,
    2-D or 3-D D-tiles whose last tile along each axis of more than one is
    clipped, a few lines each."""
    grid = CtaGrid(tuple(draw(st.integers(1, hi)) for hi in (4, 3, 2)),
                   warps_per_cta=draw(st.integers(1, 8)))
    descs = []
    kinds = draw(st.lists(st.sampled_from(_DESC_KINDS), min_size=1, max_size=3))
    for i, (ltype, sharing) in enumerate(kinds):
        ctile = tuple(draw(st.integers(1, g)) for g in grid.dims)
        counts = tuple(-(-g // c) for g, c in zip(grid.dims, ctile))
        ranked = [a for a in range(3) if counts[a] > 1 or draw(st.booleans())] or [0]
        order = draw(st.permutations(ranked))
        n = math.prod(counts)
        dcounts = draw(st.sampled_from([(n, 1, 1), (1, n, 1), counts, counts[::-1]]))
        dtile = (draw(st.integers(1, 40)), draw(st.integers(1, 6)), draw(st.integers(1, 3)))
        elem = draw(st.sampled_from([1, 4, 8]))
        stride = draw(st.sampled_from([0, elem, 64, 128, 256]))
        descs.append(make_desc(
            name=f"s{i}", base=i << 20, elem=elem, ltype=ltype, sharing=sharing,
            data_dims=tuple(draw(st.integers((m - 1) * d + 1, m * d)) if m > 1 else d
                            for m, d in zip(dcounts, dtile)),
            dtile=dtile, ctile=ctile, priority=i,
            cdmap=tuple(order.index(a) + 1 if a in order else 0 for a in range(3)),
            pattern=AccessPattern.regular_stride(stride) if stride else AccessPattern.irregular(),
        ))
    workload = Workload(grid, validate_descriptor_set(descs, grid), draw(st.integers(0, 3)))
    return workload, draw(st.sampled_from([96, 128]))


@settings(max_examples=80, deadline=None)
@given(case=_generation_cases())
def test_access_generation_matches_the_loops_it_replaced(case):
    # Byte runs, line lists, each CTA's stream of each descriptor and its
    # warp queues, against the per-element loops in tests/oracles.py.
    workload, line_size = case
    tables = [TileTable(d, workload.grid) for d in workload.descs]
    for table in tables:
        for k, dtile in enumerate(table.dtiles):
            runs = oracles.byte_runs(dtile, table.desc)
            assert grid_mod.dtile_byte_runs(dtile, table.desc) == runs
            assert {type(r) for r in table.runs(k)} == {grid_mod.ByteRun}
            assert table.lines(k, line_size) == oracles.line_list(runs, line_size)
    for cta in range(workload.grid.total_ctas):
        for table in tables:
            assert (generate_accesses(table, cta, workload.seed, line_size)
                    == oracles.accesses(table, cta, workload.seed, line_size))
        assert (engine_mod.cta_warp_queues(workload, tables, cta, line_size)
                == oracles.warp_queues(workload, tables, cta, line_size))


def test_simulate_builds_byte_runs_once_per_ctile(monkeypatch):
    # histo has 8 CTAs per C-tile; all of them read the runs of their
    # C-tile's D-tile from one tile table. The engine gets the counter too,
    # in case it imports the name itself.
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "histo.json")
    workload, policies, schedule, placement = compose(cfg)
    runs_of = grid_mod.dtile_byte_runs
    calls = []

    def counting(dtile, desc):
        calls.append(desc.data.name)
        return runs_of(dtile, desc)

    monkeypatch.setattr(grid_mod, "dtile_byte_runs", counting)
    monkeypatch.setattr(engine_mod, "dtile_byte_runs", counting, raising=False)
    simulate(workload, cfg.system, schedule, placement, policies)
    ctiles = 0
    for desc in cfg.descs:
        c = ctile_count(desc, cfg.grid)
        ctiles += c[0] * c[1] * c[2]
    assert 0 < len(calls) <= ctiles


def test_simulate_builds_line_lists_once_per_ctile(monkeypatch):
    # All CTAs of a C-tile share its D-tile's line list, kept on the tile
    # table. Every descriptor of mixed.json reads line lists.
    cfg = load_config(CONFIGS / "mixed.json")
    workload, policies, schedule, placement = compose(cfg)
    lines_of = grid_mod._lines_of_runs
    calls = []

    def counting(runs, line_size):
        calls.append(line_size)
        return lines_of(runs, line_size)

    monkeypatch.setattr(grid_mod, "_lines_of_runs", counting)
    simulate(workload, cfg.system, schedule, placement, policies)
    ctiles = 0
    for desc in cfg.descs:
        c = ctile_count(desc, cfg.grid)
        ctiles += c[0] * c[1] * c[2]
    assert 0 < len(calls) <= ctiles


@pytest.mark.parametrize("name", ["histo.json", "matrix.json"])
def test_regular_coaccessed_descriptors_build_no_line_list(monkeypatch, name):
    # A regular co-accessed C-tile is walked run by run at its stride, so
    # nothing reads its line list; these configs have no other descriptor.
    cfg = load_config(CONFIGS / name)
    workload, policies, schedule, placement = compose(cfg)
    calls = []
    monkeypatch.setattr(grid_mod, "_lines_of_runs", lambda *args: calls.append(args))
    m = simulate(workload, cfg.system, schedule, placement, policies)
    assert m.demand_accesses > 0 and calls == []


# -- simulate ----------------------------------------------------------------


def test_finished_ctas_retire_their_dtile_streams():
    # Ranking Y before X pairs C-tile (1, 0), flat 1, with D-tile 2, so the
    # stream a CTA retires must be its D-tile's, not its C-tile's index.
    grid = CtaGrid((2, 2, 1), warps_per_cta=2)
    desc = make_desc(data_dims=(4 * KB, 1, 1), dtile=(KB, 1, 1), ctile=(1, 1, 1),
                     cdmap=(2, 1, 0))
    wl = Workload(grid, validate_descriptor_set([desc], grid))
    sim = engine_mod._Simulation(wl, SystemConfig(sm_count=4), baseline_round_robin(grid, 4),
                                 None, select_policies(wl.descs), None)
    prefetching = set()  # SMs that ran the stride prefetcher
    real = sim._maybe_prefetch

    def recording(sm, *args):
        prefetching.add(sm.sm)
        real(sm, *args)

    sim._maybe_prefetch = recording
    sim.run_live()
    assert prefetching == {0, 1, 2, 3}
    assert [sm.streams for sm in sim.sms] == [[set()]] * 4


def test_histo_working_set_reduction():
    wl = histo_workload()
    cfg = SystemConfig(sm_count=4)
    rr = simulate(wl, cfg, baseline_round_robin(wl.grid, 4), policies=normal_policies(wl.descs))
    assert rr.working_set[0] == 5 * 32
    cls = form_clusters(wl.descs, wl.grid, 4)
    led = simulate(wl, cfg, assign_clusters(cls, wl.grid, 4))
    assert led.working_set[0] == 2 * 32
    assert led.working_set[1:] == [32, 32, 32]


def test_conservation_and_totals_invariance():
    wl = histo_workload()
    cfg = SystemConfig(sm_count=4)
    totals = set()
    for sched in (
        baseline_round_robin(wl.grid, 4),
        assign_clusters(form_clusters(wl.descs, wl.grid, 4), wl.grid, 4),
    ):
        m = simulate(wl, cfg, sched)
        assert m.hits + m.inflight_hits + m.misses == m.demand_accesses
        totals.add(m.demand_accesses)
    assert len(totals) == 1


def test_determinism_bit_identical():
    wl = histo_workload()
    cfg = SystemConfig(sm_count=4)
    sched = baseline_round_robin(wl.grid, 4)
    a = simulate(wl, cfg, sched).json_str()
    b = simulate(wl, cfg, sched).json_str()
    assert a == b


def test_single_sm_closed_loop_hits():
    # CTAs co-accessing one cached tile on one SM: only the first fetch of
    # each line misses, so the hit rate climbs toward 1 with more CTAs.
    def rate(ctas):
        grid = CtaGrid((ctas, 1, 1), warps_per_cta=2)
        desc = make_desc(
            data_dims=(2 * KB, 1, 1), dtile=(2 * KB, 1, 1), ctile=(ctas, 1, 1),
            cdmap=(1, 0, 0),
        )
        wl = Workload(grid, validate_descriptor_set([desc], grid), 1)
        m = simulate(wl, SystemConfig(sm_count=1), baseline_round_robin(grid, 1))
        return m.l1_hit_rate

    r16, r64 = rate(16), rate(64)
    assert r64 > r16
    assert r64 > 0.9


def test_clustering_never_worse_average_working_set():
    # All CTAs of a C-tile share one D-tile: clustered scheduling never
    # averages a larger per-SM working set than round robin.
    for gx, gy in itertools.product(range(1, 7), range(1, 9)):
        grid = CtaGrid((gx, gy, 1), warps_per_cta=2)
        for cx in [d for d in range(1, gx + 1) if gx % d == 0]:
            for cy in [d for d in range(1, gy + 1) if gy % d == 0]:
                n_ct = (gx // cx) * (gy // cy)
                desc = make_desc(
                    data_dims=(n_ct * 64, 1, 1),
                    dtile=(64, 1, 1),
                    ctile=(cx, cy, 1),
                    cdmap=(1, 2, 3),
                )
                wl = Workload(grid, [desc], 1)
                for sm in (2, 3, 4):
                    events_rr: list[AccessEvent] = []
                    events_cl: list[AccessEvent] = []
                    cfg = SystemConfig(sm_count=sm)
                    simulate(
                        wl, cfg, baseline_round_robin(grid, sm),
                        policies=normal_policies(wl.descs), trace_sink=events_rr,
                    )
                    cls = form_clusters(wl.descs, grid, sm)
                    simulate(
                        wl, cfg, assign_clusters(cls, grid, sm),
                        policies=normal_policies(wl.descs), trace_sink=events_cl,
                    )
                    ws_rr = working_set(events_rr)
                    ws_cl = working_set(events_cl)
                    avg_rr = sum(ws_rr.values()) / sm
                    avg_cl = sum(ws_cl.values()) / sm
                    assert avg_cl <= avg_rr + 1e-9, (gx, gy, cx, cy, sm)


def test_numa_stripe_efficiency_exact():
    wl = stripe_workload()
    cfg = preset("desk-numa")
    plan = place_and_partition(wl.descs, wl.grid, 4)
    cls = form_clusters(wl.descs, wl.grid, 4)
    sched = assign_clusters_by_zone(cls, wl.grid, plan.cta_partition, 16, 4)
    m = simulate(wl, cfg, sched, placement=plan)
    assert m.access_efficiency == 1.0
    assert m.zone_access_distribution == [0.25, 0.25, 0.25, 0.25]


def test_numa_xor_spreads_accesses():
    wl = stripe_workload()
    cfg = preset("desk-numa")
    m = simulate(
        wl, cfg, baseline_round_robin(wl.grid, 16),
        placement=xor_hash(4), policies=normal_policies(wl.descs),
    )
    assert m.access_efficiency == pytest.approx(0.25, abs=0.05)
    for share in m.zone_access_distribution:
        assert share == pytest.approx(0.25, abs=0.02)


def test_xor_uniform_on_irregular_workload():
    # Seed-fixed statistical replay: randomized walks under the address
    # hash spread close to evenly across zones.
    grid = CtaGrid((8, 1, 1), warps_per_cta=2)
    desc = make_desc(
        elem=4, data_dims=(64 * KB, 1, 1), dtile=(64 * KB, 1, 1), ctile=(8, 1, 1),
        pattern=AccessPattern.irregular(), cdmap=(1, 0, 0),
    )
    wl = Workload(grid, validate_descriptor_set([desc], grid), seed=3)
    cfg = preset("desk-numa")
    m = simulate(
        wl, cfg, baseline_round_robin(grid, 16),
        placement=xor_hash(4), policies=normal_policies(wl.descs),
    )
    for share in m.zone_access_distribution:
        assert share == pytest.approx(0.25, abs=0.02)


def test_remote_link_capacity_throttles():
    # Same remote-heavy run, half the link rate: strictly more cycles.
    wl = stripe_workload()
    plan = place_and_partition(wl.descs, wl.grid, 4)
    # Deliberately anti-affine: every CTA on a remote zone's SMs.
    sched = baseline_round_robin(wl.grid, 16)
    import dataclasses

    fast = preset("desk-numa")
    slow = dataclasses.replace(fast, remote_link_capacity=0.1)
    m_fast = simulate(wl, fast, sched, placement=plan, policies=normal_policies(wl.descs))
    m_slow = simulate(wl, slow, sched, placement=plan, policies=normal_policies(wl.descs))
    assert m_slow.remote_traffic == m_fast.remote_traffic > 0
    assert m_slow.total_cycles > m_fast.total_cycles


def test_pure_intra_workload_needs_no_clusters():
    d = make_desc(ltype=LocalityType.INTRA_THREAD)
    assert _ldesc_schedule(d) == "rr"


def test_sequential_stream_prefetch_accuracy():
    # One active tile, pure sequential regular stream: nearly every
    # prefetched line is demanded later.
    grid = CtaGrid((1, 1, 1), warps_per_cta=4)
    desc = make_desc(
        data_dims=(8 * KB, 1, 1), dtile=(8 * KB, 1, 1), ctile=(1, 1, 1),
        cdmap=(1, 0, 0),
    )
    wl = Workload(grid, validate_descriptor_set([desc], grid), 1)
    m = simulate(wl, SystemConfig(sm_count=1), baseline_round_robin(grid, 1))
    assert m.prefetches_issued > 0
    assert m.prefetch_accuracy >= 0.9


def test_prefetch_counts_useful_only_on_issuing_sm():
    # histo's C-tiles share their D-tile across SMs, so another SM often
    # demands a line this SM prefetched; that must neither count as useful
    # nor drop this SM's prefetch.
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "histo.json")
    m = run_experiment(dataclasses.replace(cfg, policy="ldesc-pref"))
    assert (m.prefetches_useful, m.prefetches_issued) == (320, 320)


def test_randomized_workloads_keep_invariants():
    # Seeded fuzz over mixed descriptor sets: conservation, bounded rates,
    # zone shares summing to one, and scheduler-independent totals.
    import random as _random

    rng = _random.Random(123)
    for trial in range(12):
        gx = rng.randint(2, 6)
        gy = rng.randint(1, 4)
        grid = CtaGrid((gx, gy, 1), warps_per_cta=rng.choice([1, 2, 4]))
        n_ct = gx * gy
        descs = []
        for i, ltype in enumerate(
            rng.sample(
                [LocalityType.INTER_THREAD, LocalityType.INTRA_THREAD,
                 LocalityType.NO_REUSE],
                k=rng.randint(1, 3),
            )
        ):
            sharing = (
                rng.choice([SharingType.COACCESSED, SharingType.NEARBY])
                if ltype is LocalityType.INTER_THREAD
                else None
            )
            pattern = (
                AccessPattern.regular_stride(rng.choice([128, 256]))
                if rng.random() < 0.7
                else AccessPattern.irregular()
            )
            tile_elems = rng.choice([64, 128, 256])
            descs.append(
                make_desc(
                    name=f"s{i}",
                    base=i << 20,
                    elem=4,
                    data_dims=(tile_elems * n_ct, 1, 1),
                    dtile=(tile_elems, 1, 1),
                    ctile=(1, 1, 1),
                    cdmap=(1, 2, 3),
                    ltype=ltype,
                    sharing=sharing,
                    pattern=pattern,
                    priority=i,
                )
            )
        wl = Workload(grid, validate_descriptor_set(descs, grid), seed=trial)
        cfg = SystemConfig(sm_count=4)
        totals = set()
        for sched in (
            baseline_round_robin(grid, 4),
            assign_clusters(form_clusters(wl.descs, grid, 4), grid, 4),
        ):
            m = simulate(wl, cfg, sched)
            assert m.hits + m.inflight_hits + m.misses == m.demand_accesses
            assert 0.0 <= m.l1_hit_rate <= 1.0
            assert 0.0 <= m.inflight_hit_rate <= 1.0
            assert 0.0 <= m.prefetch_accuracy <= 1.0
            assert abs(sum(m.zone_access_distribution) - 1.0) < 1e-9
            totals.add(m.demand_accesses)
        assert len(totals) == 1


def test_working_set_op_examples():
    one_line = [AccessEvent(0, 0, 0, 128 * 5 + 3, c) for c in range(100)]
    assert working_set(one_line) == {0: 1}
    disjoint = [
        AccessEvent(1, 0, 0, t * 4096 + l * 128, 0)
        for t in range(5)
        for l in range(32)
    ]
    assert working_set(disjoint) == {1: 160}
    assert working_set([]) == {}


def test_presets_match_published_parameters():
    single = preset("paper-single")
    assert single.sm_count == 15
    assert single.l1.capacity == 32 * KB and single.l1.ways == 4
    assert single.l2.capacity == 768 * KB and single.l2.ways == 16
    numa = preset("paper-numa")
    assert numa.sm_count == 64 and numa.zone_count == 4
    assert numa.l2.capacity == 4 * KB * KB and numa.l2.ways == 16
    desk = preset("desk")
    assert desk.sm_count == 8 and desk.zone_count == 1
    with pytest.raises(ConfigMismatch):
        preset("warp9")


def test_schedule_grid_mismatch_raises():
    wl = histo_workload()
    bad = baseline_round_robin(CtaGrid((4, 4, 1)), 4)
    with pytest.raises(ConfigMismatch):
        simulate(wl, SystemConfig(sm_count=4), bad)


def test_sm_count_mismatch_raises():
    wl = histo_workload()
    with pytest.raises(ConfigMismatch):
        simulate(wl, SystemConfig(sm_count=8), baseline_round_robin(wl.grid, 4))


def test_zone_without_placement_raises():
    wl = histo_workload()
    cfg = SystemConfig(sm_count=8, zone_count=4)
    with pytest.raises(ConfigMismatch):
        simulate(wl, cfg, baseline_round_robin(wl.grid, 8))


def test_policy_set_must_cover_every_descriptor():
    wl = histo_workload()
    with pytest.raises(ConfigMismatch, match="policy set"):
        simulate(wl, SystemConfig(sm_count=4), baseline_round_robin(wl.grid, 4),
                 policies=normal_policies([]))


def test_first_touch_run_leaves_caller_mapping_untouched():
    # Pages are placed in a per-run copy of the page table: a mapping reused
    # across runs under different schedules gives what a fresh one gives.
    wl = stripe_workload()
    cfg = SystemConfig(sm_count=16, zone_count=4)
    shared = first_touch(4)
    for sched in (baseline_round_robin(wl.grid, 16), distributed_schedule(wl.grid, 4, 16)):
        got = simulate(wl, cfg, sched, placement=shared).json_str()
        assert shared.page_table == {}
        assert got == simulate(wl, cfg, sched, placement=first_touch(4)).json_str()


@settings(max_examples=80, deadline=None)
@given(
    scheme=st.sampled_from(["single", "bitrange", "xor", "first_touch"]),
    low_bit=st.integers(LOW_BIT_MIN, LOW_BIT_MAX),
    placed=st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=2),
    touches=st.lists(st.tuples(st.integers(0, 256 * KB - 1), st.integers(0, 3)), max_size=40),
)
def test_row_resolver_matches_the_home_zone_rule(scheme, low_bit, placed, touches):
    # Each row's shift or resolver gives the zone that the per-access rule,
    # oracles.home_zone, gives. A first-touch row fills the run's page-table
    # copy in the order the rule fills its own; the caller's table is kept.
    wl = stripe_workload()  # one 256 KiB structure at address 0: pages 0-3
    zone_count = 1 if scheme == "single" else 4
    mapping = {
        "single": bitrange(low_bit, 4),
        "bitrange": bitrange(low_bit, 4),
        "xor": xor_hash(4),
        "first_touch": first_touch(4),
    }[scheme]
    mapping.page_table.update(placed)
    reference = None
    if zone_count > 1:
        reference = dataclasses.replace(mapping, page_table=dict(mapping.page_table))
    sim = engine_mod._Simulation(
        wl, SystemConfig(sm_count=16, zone_count=zone_count),
        baseline_round_robin(wl.grid, 16), mapping, select_policies(wl.descs), None,
    )
    (row,) = sim.rows
    assert (row.shift is None) == (scheme in ("xor", "first_touch")) == (row.home is not None)
    for offset, toucher in touches:
        addr = row.base + offset
        if row.shift is None:
            got = row.home(addr, toucher)
        else:
            got = (addr >> row.shift) % zone_count
        assert got == oracles.home_zone(addr, reference, toucher, zone_count)
    if reference is not None:
        assert list(row.mapping.page_table.items()) == list(reference.page_table.items())
    assert mapping.page_table == placed


def test_prefetch_into_a_higher_priority_row_uses_that_rows_mapping():
    # "wide" (priority 1, bytes 0-256 KiB) stride-prefetches; from 128 KiB on
    # its addresses belong to "hot" (priority 0, 128-384 KiB), whose mapping
    # has another low bit. A prefetch whose target crosses into "hot" takes
    # its home zone from "hot"'s mapping; taking it from "wide"'s, the row of
    # the demand miss, reads 1644 for remote_traffic. The pinned values are
    # what the engine gave when it applied oracles.home_zone to each access.
    grid = CtaGrid((16, 1, 1))
    wide = make_desc(name="wide", data_dims=(64 * KB, 1, 1), dtile=(4 * KB, 1, 1),
                     ctile=(1, 1, 1), priority=1)
    hot = make_desc(name="hot", base=128 * KB, data_dims=(64 * KB, 1, 1),
                    dtile=(4 * KB, 1, 1), ctile=(1, 1, 1), priority=0)
    wl = Workload(grid, validate_descriptor_set([wide, hot], grid), 1)
    assert [p.prefetch for p in select_policies(wl.descs)] == [PrefetchKind.STRIDE] * 2
    cfg = SystemConfig(sm_count=16, zone_count=4, l1=CacheConfig(64 * KB, ways=4))
    plan = NumaPlan(
        {flat: flat // 4 for flat in range(16)},
        {"wide": bitrange(16, 4), "hot": bitrange(9, 4)},
        0.0,
    )
    m = simulate(wl, cfg, baseline_round_robin(grid, 16), placement=plan)
    assert m.zone_access_distribution == [0.3125, 0.3125, 0.1875, 0.1875]
    assert m.remote_traffic == 1640
    assert m.total_cycles == 6131
    assert (m.prefetches_issued, m.demand_accesses) == (1780, 4096)


@st.composite
def _row_map_cases(draw):
    """A grid and 1-5 descriptors whose structures nest, overlap, abut or
    leave gaps: bases on 64 KiB pages 0-7, lengths of 16-256 KiB. A
    descriptor may instead copy an earlier one's structure, so that two
    coincide. Priorities are distinct, so any two ranges may overlap."""
    grid = CtaGrid((2, 1, 1))
    priorities = draw(st.permutations(range(draw(st.integers(1, 5)))))
    descs = []
    for i, priority in enumerate(priorities):
        if descs and draw(st.integers(0, 3)) == 0:
            twin = draw(st.sampled_from(descs))
            descs.append(dataclasses.replace(twin, priority=priority))
            continue
        elems = draw(st.sampled_from([16, 64, 128, 192, 256])) * KB // 4
        descs.append(make_desc(
            name=f"s{i}", base=draw(st.integers(0, 7)) * 64 * KB, data_dims=(elems, 1, 1),
            dtile=(elems // 2, 1, 1), ctile=(1, 1, 1), cdmap=(1, 2, 3), priority=priority,
        ))
    return grid, descs


@settings(max_examples=60, deadline=None)
@given(case=_row_map_cases())
def test_row_map_is_the_priority_scan(case):
    # At every cut point of the interval map, one byte either side of it,
    # below the first base and above the last end, the row found is the
    # first row, in priority order, whose structure holds the address.
    grid, descs = case
    wl = Workload(grid, validate_descriptor_set(descs, grid), 1)
    sim = engine_mod._Simulation(wl, SystemConfig(sm_count=2), baseline_round_robin(grid, 2),
                                 None, normal_policies(wl.descs), None)
    cuts = {a for d in wl.descs for a in (d.data.base_addr, d.data.end_addr)}
    probes = {a + step for a in cuts for step in (-1, 0, 1)} | {0, max(cuts) + 64 * KB}
    for addr in sorted(probes):
        want = next((r for r in sim.rows if oracles.contains(r.table.desc.data, addr)), None)
        if want is None:
            with pytest.raises(ConfigMismatch, match=f"^address {addr:#x} matches no descriptor$"):
                sim._row_of(addr)
        else:
            assert sim._row_of(addr) is want, hex(addr)


def test_trace_replay_reproduces_metrics():
    wl = histo_workload()
    cfg = SystemConfig(sm_count=4)
    sched = assign_clusters(form_clusters(wl.descs, wl.grid, 4), wl.grid, 4)
    events: list[AccessEvent] = []
    live = simulate(wl, cfg, sched, trace_sink=events)
    replay = simulate(wl, cfg, sched, trace_in=events)
    assert live.json_str() == replay.json_str()


@pytest.mark.parametrize(
    "field,value", [("sm", 4), ("sm", -1), ("cta", 40), ("cta", -1), ("warp", 8), ("warp", -1)]
)
def test_trace_replay_rejects_event_outside_system_or_grid(field, value):
    wl = histo_workload()
    cfg = SystemConfig(sm_count=4)
    sched = baseline_round_robin(wl.grid, 4)
    events: list[AccessEvent] = []
    simulate(wl, cfg, sched, trace_sink=events)
    events[-1] = events[-1]._replace(**{field: value})
    with pytest.raises(ConfigMismatch, match="outside this system/grid"):
        simulate(wl, cfg, sched, trace_in=events)


@pytest.mark.parametrize("moved", ["all-but-first", "last"])
def test_trace_replay_rejects_a_cta_on_two_sms(moved):
    wl = histo_workload()
    cfg = SystemConfig(sm_count=4)
    sched = baseline_round_robin(wl.grid, 4)
    events: list[AccessEvent] = []
    simulate(wl, cfg, sched, trace_sink=events)
    at = [i for i, ev in enumerate(events) if ev.cta == 0]
    home = events[at[0]].sm
    other = (home + 1) % 4
    for i in at[1:] if moved == "all-but-first" else at[-1:]:
        events[i] = events[i]._replace(sm=other)
    with pytest.raises(ConfigMismatch, match=f"CTA 0 on SM {home} and on SM {other}"):
        simulate(wl, cfg, sched, trace_in=events)


@functools.cache
def _recorded_histo_run():
    """The histo workload on four SMs under round robin, and its live trace."""
    wl = histo_workload()
    cfg = SystemConfig(sm_count=4)
    sched = baseline_round_robin(wl.grid, 4)
    events: list[AccessEvent] = []
    simulate(wl, cfg, sched, trace_sink=events)
    return wl, cfg, sched, tuple(events)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_trace_replay_raises_the_first_bad_events_error(data):
    # One event of a real trace gets one or more of its SM, CTA, warp and
    # cycle changed: the first event of its (CTA, warp) slot, or a later one.
    # The replay raises the reference's message for the first bad event, or,
    # if every event passes the reference's checks, none of them.
    wl, cfg, sched, trace = _recorded_histo_run()
    sms, ctas, warps = cfg.sm_count, wl.grid.total_ctas, wl.grid.warps_per_cta
    firsts, laters, seen = [], [], set()
    for i, ev in enumerate(trace):
        (laters if (ev.cta, ev.warp) in seen else firsts).append(i)
        seen.add((ev.cta, ev.warp))
    i = data.draw(st.sampled_from(laters if data.draw(st.booleans()) else firsts))
    ev = trace[i]
    # Each field keeps its value, takes another valid one or takes a bad one,
    # a third of the time each, and at least one changes. ``warps + warp``
    # and a CTA one off would alias another slot under a key of
    # cta * warps + warp.
    def pick(keep, valid, bad):
        return data.draw(st.one_of(st.just(keep), st.sampled_from(valid), st.sampled_from(bad)))

    near = [c for c in (ev.cta - 1, ev.cta + 1, (ev.cta + 4) % ctas) if 0 <= c < ctas]
    changes = {
        "sm": pick(ev.sm, [s for s in range(sms) if s != ev.sm], [-1, sms, sms + ev.sm]),
        "cta": pick(ev.cta, near, [-1, ctas, ctas + ev.cta]),
        "warp": pick(ev.warp, [(ev.warp + 1) % warps], [-1, warps, warps + ev.warp]),
        "issue_cycle": pick(ev.issue_cycle, [ev.issue_cycle + 1], [-1, -ev.issue_cycle - 1]),
    }
    assume(ev._replace(**changes) != ev)
    events = list(trace)
    events[i] = ev._replace(**changes)
    want = oracles.replay_error(events, sms, ctas, warps)
    try:
        simulate(wl, cfg, sched, trace_in=events)
    except ConfigMismatch as exc:
        got = str(exc)
    else:
        got = None
    if want is not None or got is None:
        assert got == want, (i, events[i])
    else:
        # The checks before the first issue all pass; a moved event can still
        # meet its warp's access in flight or a full MSHR.
        assert got.startswith(("trace issues CTA", "trace replay stalled")), got


def test_trace_replay_rejects_a_trace_that_needs_more_mshr_entries():
    # A live run on 32 L1 MSHR entries has misses in flight together that
    # one entry cannot hold, so its replay on one entry stalls.
    wl, cfg, sched, trace = _recorded_histo_run()
    one = dataclasses.replace(cfg, l1=dataclasses.replace(cfg.l1, mshr_entries=1))
    with pytest.raises(ConfigMismatch, match="^trace replay stalled on a full MSHR; the trace "
                       "does not match this configuration$"):
        simulate(wl, one, sched, trace_in=list(trace))


def test_one_completion_record_per_access(monkeypatch):
    # Each demand access lands exactly one record in its completion cycle,
    # live and replayed; fills are not completion records.
    made = []

    class CountingDue(engine_mod._Due):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

    records = [name for name in engine_mod._Due.__slots__ if name != "fills"]
    monkeypatch.setattr(engine_mod, "_Due", CountingDue)
    cfg = load_config(CONFIGS / "mixed.json")
    workload, policies, schedule, plan = compose(cfg)
    trace: list[AccessEvent] = []
    for run in ({"trace_sink": trace}, {"trace_in": trace}):
        made.clear()
        metrics = simulate(workload, cfg.system, schedule, plan, policies, **run)
        landed = sum(len(getattr(due, name)) for due in made for name in records)
        assert landed == metrics.demand_accesses > 0, run.keys()


def test_replay_issues_exactly_its_trace_and_generates_no_accesses(monkeypatch):
    # A replay bypasses workload generation and scheduling: it issues the
    # trace's events and nothing else, so a CTA or warp without events runs
    # nothing, even where the schedule places it.
    cfg = load_config(CONFIGS / "matrix.json")
    workload, policies, schedule, plan = compose(cfg)
    assert workload.grid.total_ctas == 16
    live_trace: list[AccessEvent] = []
    live = simulate(workload, cfg.system, schedule, plan, policies, trace_sink=live_trace)

    def generate(*args, **kwargs):
        raise AssertionError("replay generated accesses")

    monkeypatch.setattr(engine_mod, "generate_accesses", generate)

    def replay(events):
        sink: list[AccessEvent] = []
        metrics = simulate(workload, cfg.system, schedule, plan, policies,
                           trace_sink=sink, trace_in=events)
        return metrics, sink

    metrics, sink = replay(live_trace)
    assert metrics.json_str() == live.json_str()
    assert sink == live_trace

    first = {}  # (cta, warp) -> its first live event
    for ev in live_trace:
        first.setdefault((ev.cta, ev.warp), ev)
    hand = [first[0, w]._replace(issue_cycle=0) for w in range(workload.grid.warps_per_cta)]
    hand.append(first[1, 0]._replace(issue_cycle=3))
    metrics, sink = replay(hand)
    assert sink == hand
    assert metrics.demand_accesses == len(hand)

    metrics, sink = replay([])
    assert sink == []
    assert metrics.demand_accesses == 0
    assert metrics.total_cycles == 0


_trace_ints = st.integers(0, 2**40)
_trace_event = st.builds(AccessEvent, _trace_ints, _trace_ints, _trace_ints,
                         st.one_of(st.just(0), st.integers(0, 2**200)), _trace_ints)


@settings(max_examples=60, deadline=None)
@given(st.lists(_trace_event))
def test_trace_dump_is_sorted_key_json_and_loads_back(events):
    buf = io.StringIO()
    engine_mod.dump_trace(events, buf)
    want = "".join(
        json.dumps({"sm": ev.sm, "cta": ev.cta, "warp": ev.warp, "addr": f"{ev.addr:#x}",
                    "cycle": ev.issue_cycle}, sort_keys=True) + "\n"
        for ev in events
    )
    assert buf.getvalue() == want
    buf.seek(0)
    assert engine_mod.load_trace(buf) == events


def _loaded(loader, text):
    """A trace loader's events for ``text``, or the message of its ConfigError."""
    try:
        return loader(io.StringIO(text))
    except ConfigError as exc:
        return str(exc)


def _dumped(events):
    buf = io.StringIO()
    engine_mod.dump_trace(events, buf)
    return buf.getvalue()


_UNICODE_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                "\u0665\u0666\u0667\u0668\u0669")


def _trace_fields(ev):
    """An event's JSON value texts, keyed as ``dump_trace`` writes them."""
    return {"addr": f'"{ev.addr:#x}"', "cta": str(ev.cta), "cycle": str(ev.issue_cycle),
            "sm": str(ev.sm), "warp": str(ev.warp)}


def _trace_object(items, sep=", ", colon=": "):
    return "{" + sep.join(f'"{k}"{colon}{v}' for k, v in items) + "}"


@settings(max_examples=25, deadline=None)
@given(st.lists(_trace_event, max_size=8))
def test_trace_fast_path_matches_json_loader_on_dumped_lines(events):
    text = _dumped(events)
    assert _loaded(engine_mod.load_trace, text) == _loaded(oracles.load_trace, text) == events


@settings(max_examples=30, deadline=None)
@given(st.lists(_trace_event, max_size=6), st.data())
def test_trace_fast_path_matches_json_loader_on_reserialised_lines(events, data):
    # Every variant here is a valid trace of the same events; most of them
    # miss the fast path's one line form and take the json.loads path.
    lines = []
    for ev in events:
        fields = _trace_fields(ev)
        for key in ("cta", "cycle", "sm", "warp"):
            if fields[key] == "0" and data.draw(st.booleans()):
                fields[key] = "-0"
        digits = "0" * data.draw(st.integers(0, 2)) + f"{ev.addr:x}"
        if data.draw(st.booleans()):
            digits = digits.upper()
        if data.draw(st.booleans()):
            digits = digits.translate(_UNICODE_DIGITS)
        fields["addr"] = f'"{data.draw(st.sampled_from(["0x", "0X", ""]))}{digits}"'
        items = list(fields.items())
        if data.draw(st.booleans()):
            items.append(("note", data.draw(st.sampled_from(['"x"', "[1, 2]", '{"sm": -1}']))))
        items = data.draw(st.permutations(items))
        pad = data.draw(st.sampled_from(["", " ", "\t"]))
        lines += [""] * data.draw(st.integers(0, 1))
        lines.append(pad + _trace_object(items, data.draw(st.sampled_from([", ", ",", " ,  "])),
                                         data.draw(st.sampled_from([": ", ":", " : "]))) + pad)
    text = "\n".join(lines) + data.draw(st.sampled_from(["\n", ""]))
    assert _loaded(engine_mod.load_trace, text) == _loaded(oracles.load_trace, text) == events


def _malformed_lines(ev):
    """Lines that each get one thing wrong about ``ev``'s dumped line."""
    fields = _trace_fields(ev)
    for key in ("cta", "cycle", "sm", "warp"):
        value = fields[key]
        for bad in ("0" + value, value.translate(_UNICODE_DIGITS),
                    value[:-1] + value[-1].translate(_UNICODE_DIGITS), str(-int(value) - 1),
                    "+" + value, value + ".0", f'"{value}"', "true", "null"):
            yield _trace_object({**fields, key: bad}.items())
    for bad in ('"0x"', '"0x-1"', '"0xg1"', '"0x1 2"', '"0x_"', str(ev.addr), "null"):
        yield _trace_object({**fields, "addr": bad}.items())
    for key in fields:
        yield _trace_object((k, v) for k, v in fields.items() if k != key)
    line = _trace_object(fields.items())
    yield "[" + line + "]"
    yield from (line[:end] for end in range(1, len(line)))


@settings(max_examples=30, deadline=None)
@given(st.lists(_trace_event, min_size=1, max_size=3), st.data())
def test_trace_fast_path_matches_json_loader_on_malformed_lines(events, data):
    lines = _dumped(events).splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    for bad in _malformed_lines(events[i]):
        text = "\n".join(lines[:i] + [bad] + lines[i + 1:]) + "\n"
        want = _loaded(oracles.load_trace, text)
        assert isinstance(want, str) and want.startswith(f"trace:{i + 1}: "), bad
        assert _loaded(engine_mod.load_trace, text) == want, bad


@settings(max_examples=30, deadline=None)
@given(st.lists(_trace_event, min_size=1, max_size=4), st.data())
def test_trace_block_reader_matches_json_loader_across_two_blocks(events, data):
    # load_trace reads blocks of about _TRACE_BLOCK characters; the first
    # block here is all dump_trace lines and the second holds one other line,
    # valid or not, and the trace ends without a final newline.
    dumped = _dumped(events)
    first = dumped * (engine_mod._TRACE_BLOCK // len(dumped) + 1)
    rest = dumped.splitlines()
    ev = data.draw(st.sampled_from(events))
    if data.draw(st.booleans()):
        other = data.draw(st.sampled_from(list(_malformed_lines(ev))))
    else:
        fields = list(_trace_fields(ev).items())
        other = _trace_object(data.draw(st.permutations(fields)), ",", ":")
    rest.insert(data.draw(st.integers(0, len(rest))), other)
    text = first + "\n".join(rest)
    want = _loaded(oracles.load_trace, text)
    if isinstance(want, str):
        bad = first.count("\n") + rest.index(other) + 1
        assert want.startswith(f"trace:{bad}: ")
    assert _loaded(engine_mod.load_trace, text) == want


@pytest.mark.parametrize("kib", [20, 200])
def test_trace_undecodable_byte_beats_malformed_line_in_its_block(tmp_path, kib):
    # Each block is decoded before its lines are parsed: a bad byte about
    # 20 KiB after a malformed line 1 is in the same block, one about 200 KiB
    # after it is not.
    dumped = _dumped([AccessEvent(1, 2, 3, 0x1F80, 42)])
    count = kib * 1024 // len(dumped)
    path = tmp_path / "t.jsonl"
    path.write_bytes(b"{}\n" + dumped.encode() * count + b"\xff\n")
    with open(path, encoding="utf-8") as fp, pytest.raises(ConfigError) as exc:
        engine_mod.load_trace(fp)
    if kib * 1024 < engine_mod._TRACE_BLOCK:
        assert str(exc.value) == f"{path}:{count + 2}: byte 0xff is not valid utf-8"
    else:
        assert str(exc.value).startswith(f"{path}:1: missing key")


def test_trace_replay_rejects_event_before_cycle_zero():
    # Such an event would never be issued, so its CTA would never finish.
    wl = histo_workload()
    cfg = SystemConfig(sm_count=4)
    sched = baseline_round_robin(wl.grid, 4)
    events: list[AccessEvent] = []
    simulate(wl, cfg, sched, trace_sink=events)
    events[-1] = events[-1]._replace(issue_cycle=-3)
    with pytest.raises(ConfigMismatch, match="cycle -3, before cycle 0"):
        simulate(wl, cfg, sched, trace_in=events)


def test_trace_replay_with_prefetch_and_pins():
    grid = CtaGrid((8, 1, 1), warps_per_cta=4)
    inter = make_desc(
        data_dims=(8 * KB, 1, 1), dtile=(KB, 1, 1), ctile=(1, 1, 1), cdmap=(1, 0, 0)
    )
    intra = make_desc(
        name="b", base=1 << 20, ltype=LocalityType.INTRA_THREAD,
        data_dims=(16 * KB, 1, 1), dtile=(2 * KB, 1, 1), ctile=(1, 1, 1),
        cdmap=(1, 0, 0), priority=1,
    )
    wl = Workload(grid, validate_descriptor_set([inter, intra], grid), 3)
    cfg = SystemConfig(sm_count=2, l1=CacheConfig(2 * KB, ways=4, pin_reset_period=500))
    sched = baseline_round_robin(grid, 2)
    events: list[AccessEvent] = []
    live = simulate(wl, cfg, sched, trace_sink=events)
    replay = simulate(wl, cfg, sched, trace_in=events)
    assert live.json_str() == replay.json_str()
    assert live.prefetches_issued > 0


def test_stalled_sm_waits_for_a_fill(monkeypatch):
    # Eight warps stream 256 bypassed lines through two MSHR entries. A
    # stall changes nothing until a fill frees an entry, so a stalled warp
    # must not retry on the cycles in between.
    grid = CtaGrid((1, 1, 1), warps_per_cta=8)
    desc = make_desc(ltype=LocalityType.NO_REUSE, data_dims=(256 * 32, 1, 1),
                     dtile=(256 * 32, 1, 1), ctile=(1, 1, 1), cdmap=(1, 0, 0))
    wl = Workload(grid, validate_descriptor_set([desc], grid))
    cfg = SystemConfig(sm_count=1, l1=CacheConfig(32 * KB, ways=4, mshr_entries=2))
    access, stalls = CacheModel.access, []

    def counting(cache, addr, iclass, cycle):
        try:
            return access(cache, addr, iclass, cycle)
        except MshrFull:
            stalls.append(cycle)
            raise

    monkeypatch.setattr(CacheModel, "access", counting)
    m = simulate(wl, cfg, baseline_round_robin(grid, 1))
    assert m.misses == 256
    assert len(stalls) <= m.misses


@pytest.mark.parametrize("name", ["matrix.json", "mixed.json"])
def test_stalled_sm_retries_only_once_its_own_state_changes(monkeypatch, name):
    # One MSHR entry per L1 makes warps stall. Only the SM's own fills free
    # an entry and only its own issues take one, so an SM that stalls again
    # before it issues must have had a fill land or a warp wake in between.
    # The loop that retried stalled SMs on every visited cycle also retried
    # them on other SMs' fills and completions, with nothing changed.
    cfg = load_config(CONFIGS / name)
    l1 = dataclasses.replace(cfg.system.l1, mshr_entries=1)
    cfg = dataclasses.replace(cfg, system=dataclasses.replace(cfg.system, l1=l1))
    issue = engine_mod._Simulation._issue
    at_last_stall, stalls, repeats = {}, [], []

    def counting_issue(sim, slot, *args):
        sm = slot.sm
        completion = issue(sim, slot, *args)
        if completion is None:
            state = (tuple(sm.ready), tuple(sm.l1.mshr))
            stalls.append(sm.sm)
            if at_last_stall.get(sm.sm) == state:
                repeats.append(sm.sm)
            at_last_stall[sm.sm] = state
        else:
            at_last_stall.pop(sm.sm, None)
        return completion

    monkeypatch.setattr(engine_mod._Simulation, "_issue", counting_issue)
    run_experiment(cfg)
    assert stalls and not repeats, f"{len(repeats)} of {len(stalls)} stalls changed nothing"


# -- the cycle loop against the reference engine ------------------------------


@st.composite
def _loop_cases(draw):
    """A small grid, descriptor set and system whose tiny MSHR tables and
    short pin-reset periods make warps stall and pins reset. Up to 4 SMs per
    zone and one to three resident CTAs per SM leave some SMs without a CTA
    and make others refill late. Latencies are short, because the reference
    visits every cycle."""
    gx, gy = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    grid = CtaGrid((gx, gy, 1), warps_per_cta=draw(st.sampled_from([1, 2, 4])))
    descs = []
    kinds = draw(st.lists(st.sampled_from(_DESC_KINDS), min_size=1, max_size=3))
    for i, (ltype, sharing) in enumerate(kinds):
        stride = draw(st.sampled_from([0, 128, 256]))
        tile = draw(st.sampled_from([64, 128, 256]))
        descs.append(make_desc(
            name=f"s{i}", base=i << 20, data_dims=(tile * gx * gy, 1, 1),
            dtile=(tile, 1, 1), ctile=(1, 1, 1), cdmap=(1, 2, 3), ltype=ltype,
            sharing=sharing, priority=i,
            pattern=AccessPattern.regular_stride(stride) if stride else AccessPattern.irregular(),
        ))
    periods = st.sampled_from([0, 5, 16, 60])
    zones = draw(st.sampled_from([1, 2]))
    system = SystemConfig(
        sm_count=zones * draw(st.sampled_from([1, 2, 4])),
        zone_count=zones,
        l1=CacheConfig(draw(st.sampled_from([1, 2, 4])) * KB, ways=draw(st.sampled_from([1, 2, 4])),
                       mshr_entries=draw(st.integers(1, 3)), pin_reset_period=draw(periods)),
        l2=CacheConfig(8 * KB, ways=4, pin_reset_period=draw(periods)),
        latencies=Latencies(1, draw(st.integers(2, 5)), draw(st.integers(6, 12)),
                            draw(st.integers(6, 20))),
        max_resident_ctas_per_sm=draw(st.integers(1, 3)),
    )
    return system, grid, validate_descriptor_set(descs, grid), draw(st.integers(0, 3))


@settings(max_examples=20, deadline=None)
@given(case=_loop_cases())
def test_cycle_loop_matches_the_loops_it_replaced(case):
    # Every policy, and every placement on more than one zone: the same
    # metrics and live trace as the reference, and replays that match.
    system, grid, descs, seed = case
    placements = PLACEMENT_NAMES if system.zone_count > 1 else PLACEMENT_NAMES[:1]
    for policy, placement in itertools.product(POLICY_NAMES, placements):
        cfg = ExperimentConfig(system, grid, descs, policy, placement, seed)
        workload, policies, schedule, plan = compose(cfg)
        oracles.assert_matches_reference(workload, system, schedule, plan, policies,
                                         (policy, placement))


@st.composite
def _slow_hit_cases(draw):
    """A loop case whose L1 hits take 2-4 cycles, with 1-2 MSHR entries and
    2-3 resident CTAs. A CTA can then finish while a warp of another CTA on
    its SM waits on a full MSHR, and the renumbered slots change which warp
    the SM tries next."""
    system, grid, descs, seed = draw(_loop_cases())
    system = dataclasses.replace(
        system,
        l1=dataclasses.replace(system.l1, mshr_entries=draw(st.integers(1, 2))),
        latencies=dataclasses.replace(system.latencies, l1_hit=draw(st.integers(2, 4))),
        max_resident_ctas_per_sm=draw(st.integers(2, 3)),
    )
    return system, grid, descs, seed


_SLOW_HIT_GRID = CtaGrid((1, 3, 1), warps_per_cta=1)


def _slow_hit_example(mshr_entries, tile, sharing):
    """One SM with 2-cycle L1 hits and three resident one-warp CTAs, each on
    one ``tile``-element D-tile of an irregular structure."""
    system = SystemConfig(
        sm_count=1,
        l1=CacheConfig(1 * KB, ways=1, mshr_entries=mshr_entries),
        l2=CacheConfig(8 * KB, ways=4),
        latencies=Latencies(2, 2, 6, 6),
        max_resident_ctas_per_sm=3,
    )
    desc = make_desc(
        name="s0", data_dims=(3 * tile, 1, 1), dtile=(tile, 1, 1), ctile=(1, 1, 1),
        cdmap=(1, 2, 3), sharing=sharing, pattern=AccessPattern.irregular(),
    )
    return system, _SLOW_HIT_GRID, validate_descriptor_set([desc], _SLOW_HIT_GRID), 0


@settings(max_examples=40, deadline=None)
@given(case=_slow_hit_cases())
@example(case=_slow_hit_example(2, 128, SharingType.NEARBY))
# Under rr, CTA 0 completes while the scan pointer sits at slot 1, CTA 1's
# warp, with CTAs 1 and 2 ready. Renumbered, slot 1 is CTA 2's warp, and it
# issues first; a scan restarted at slot 0 would issue CTA 1's.
@example(case=_slow_hit_example(1, 64, SharingType.COACCESSED))
def test_cycle_loop_matches_the_old_loop_with_slow_l1_hits(case):
    # The live loop against the reference when a CTA completes on an SM whose
    # warp is stalled: the SM must retry at once, as the reference does.
    system, grid, descs, seed = case
    for policy in POLICY_NAMES:
        cfg = ExperimentConfig(system, grid, descs, policy, PLACEMENT_NAMES[0], seed)
        workload, policies, schedule, plan = compose(cfg)
        oracles.assert_matches_reference(workload, system, schedule, plan, policies, policy)


@st.composite
def _shared_structure_cases(draw):
    """A loop case with one more descriptor, over the structure of one it
    already has, of a kind drawn afresh and at the lowest priority."""
    system, grid, descs, seed = draw(_loop_cases())
    twin = draw(st.sampled_from(descs))
    ltype, sharing = draw(st.sampled_from(_DESC_KINDS))
    extra = dataclasses.replace(twin, ltype=ltype, sharing=sharing, priority=len(descs))
    return system, grid, validate_descriptor_set(descs + [extra], grid), seed


@settings(max_examples=20, deadline=None)
@given(case=st.one_of(_loop_cases(), _shared_structure_cases()))
def test_simulate_leaves_its_arguments_unchanged(case):
    # Under every policy and placement, a live run and a replay of its own
    # trace leave the workload, system, schedule, placement (page tables
    # included), policy tuple and replayed trace equal to deep copies taken
    # before them.
    system, grid, descs, seed = case
    for policy, placement in itertools.product(POLICY_NAMES, PLACEMENT_NAMES):
        workload, policies, schedule, plan = compose(
            ExperimentConfig(system, grid, descs, policy, placement, seed))
        args = (workload, system, schedule, plan, policies)
        before = copy.deepcopy(args)
        trace: list[AccessEvent] = []
        simulate(*args, trace_sink=trace)
        assert args == before, (policy, placement)
        recorded = copy.deepcopy(trace)
        simulate(*args, trace_in=trace)
        assert args == before and trace == recorded, (policy, placement)


@pytest.mark.parametrize("name", ["histo.json", "mixed.json", "numa_stripe.json",
                                  "matrix.json", "pin_reset.json"])
@pytest.mark.parametrize("policy", ["ldesc-pref", "rr"])
def test_each_visited_cycle_is_pushed_once(monkeypatch, name, policy):
    cfg = dataclasses.replace(load_config(CONFIGS / name), policy=policy)
    pushed, visited = [], []
    push, pop = heapq.heappush, heapq.heappop

    def counting_push(heap, cycle):
        pushed.append(cycle)
        push(heap, cycle)

    def counting_pop(heap):
        visited.append(pop(heap))
        return visited[-1]

    monkeypatch.setattr(engine_mod.heapq, "heappush", counting_push)
    monkeypatch.setattr(engine_mod.heapq, "heappop", counting_pop)
    run_experiment(cfg)
    assert visited[0] == 0 and visited == sorted(set(visited))
    assert len(pushed) == len(set(pushed))
    # a cycle pushed but never visited is a fill due after the last completion
    assert set(visited) <= set(pushed)
    assert all(c > visited[-1] for c in set(pushed) - set(visited))


@pytest.mark.parametrize("name", ["histo.json", "mixed.json", "matrix.json"])
@pytest.mark.parametrize("policy", ["ldesc-pref", "rr"])
def test_live_run_visits_no_cycle_without_work(monkeypatch, name, policy):
    # Every visited cycle after cycle 0 lands a fill or a completion record,
    # or has an awake SM when its scan starts. The loop that queued the next
    # cycle whenever a scan issued also visited cycles after scans that left
    # every SM asleep, where nothing landed and nothing could issue.
    cfg = dataclasses.replace(load_config(CONFIGS / name), policy=policy)
    run, due_at = engine_mod._Simulation._run, engine_mod._Simulation._due_at
    dues, idle = {}, []

    def recording_due_at(sim, cycle):
        dues[cycle] = due_at(sim, cycle)
        return dues[cycle]

    def checking_run(sim, step):
        def checked(cycle):
            due = dues[cycle]
            if cycle and not (due.fills or due.comps or sim.awake):
                idle.append(cycle)
            step(cycle)
        run(sim, checked)

    monkeypatch.setattr(engine_mod._Simulation, "_due_at", recording_due_at)
    monkeypatch.setattr(engine_mod._Simulation, "_run", checking_run)
    metrics = run_experiment(cfg)
    assert metrics.demand_accesses > 0
    assert not idle, f"{len(idle)} visited cycles had no work, the first {idle[0]}"


@pytest.mark.parametrize("policy", ["rr", "ldesc"])
def test_every_scanned_sm_issues_or_stalls(monkeypatch, policy):
    # An SM is scanned only when one of its warps can issue, so each scan makes
    # one _issue call. The loop that walked each awake SM's slots instead also
    # scanned SMs whose warps all waited on memory, and fails this: on
    # perfbench's reuse-single (seed 1) it made 5,086 scans for 3,696 accesses.
    cfg = dataclasses.replace(load_config(CONFIGS / "mixed.json"), policy=policy)
    run, issue = engine_mod._Simulation._run, engine_mod._Simulation._issue
    scans, calls = [], []

    def counting_run(sim, step):
        def counted(cycle):
            scans.append(len(sim.awake))
            step(cycle)
        run(sim, counted)

    def counting_issue(sim, *args):
        calls.append(args)
        return issue(sim, *args)

    monkeypatch.setattr(engine_mod._Simulation, "_run", counting_run)
    monkeypatch.setattr(engine_mod._Simulation, "_issue", counting_issue)
    metrics = run_experiment(cfg)
    assert sum(scans) == len(calls) >= metrics.demand_accesses > 0
