"""Prefetch distance formula, nextline fallback, bounds and stream retirement,
the prefetcher kind a run's policy names, and the engine's stream tracking
against the code it replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldesc_sim import (
    AccessEvent,
    CacheConfig,
    CtaGrid,
    DescriptorPolicy,
    InsertionClass,
    LocalityType,
    PrefetchKind,
    SharingType,
    SystemConfig,
    TileTable,
    Workload,
    baseline_round_robin,
    dtile_count,
    select_policies,
    simulate,
    validate_descriptor_set,
)
from ldesc_sim import prefetch as prefetch_mod
from ldesc_sim.descriptor import AccessPattern
from ldesc_sim.errors import ConfigMismatch
from ldesc_sim.numa import bitrange, first_touch, xor_hash
from ldesc_sim.prefetch import on_miss

import oracles
from conftest import make_desc
from oracles import contains

NONE, STRIDE, NEXTLINE = PrefetchKind.NONE, PrefetchKind.STRIDE, PrefetchKind.NEXTLINE

KB = 1024


def stride_desc(stride=128, tiles=8, tile_elems=1024, elem=4):
    # data_tile_width = tile_elems * elem bytes
    return make_desc(
        elem=elem,
        data_dims=(tile_elems * tiles, 1, 1),
        dtile=(tile_elems, 1, 1),
        ctile=(1, 1, 1),
        cdmap=(1, 0, 0),
        pattern=AccessPattern.regular_stride(stride),
    )


def table_of(desc):
    """``desc``'s tile table over the grid with one C-tile per D-tile; its
    D-tiles lie along X."""
    cx, cy, cz = desc.tiles.ctile_dims
    return TileTable(desc, CtaGrid((dtile_count(desc)[0] * cx, cy, cz)))


def miss(table, addr, active, l1_size=32768):
    """A STRIDE miss as the engine runs it: the D-tile of ``addr`` joins the
    SM's streaming set ``active``, whose size ``on_miss`` is then given."""
    active.add(table.dtile_at(addr))
    return on_miss(addr, STRIDE, table, l1_size, len(active))


def test_distance_formula_exact():
    # l1 32768, 2 active tiles, width 4096 -> factor 4; stride 128 -> +512.
    table = table_of(stride_desc())
    active = {0}
    targets = miss(table, table.base + 4096, active)
    assert active == {0, 1}
    assert targets == [table.base + 4096 + 512]


def test_distance_halves_when_active_doubles():
    table = table_of(stride_desc())
    (target2,) = miss(table, table.base, {7})  # 2 active
    (target4,) = miss(table, table.base, {5, 6, 7})  # 4 active
    assert target2 - table.base == 2 * (target4 - table.base)


def test_nearby_nextline():
    desc = make_desc(
        data_dims=(8 * KB, 1, 1), dtile=(KB, 1, 1), ctile=(1, 8, 1),
        sharing=SharingType.NEARBY, cdmap=(1, 0, 0),
    )
    # A NEXTLINE row tracks no stream: the engine passes 0 active tiles.
    targets = on_miss(desc.data.base_addr, NEXTLINE, table_of(desc), 32768, 0, line_size=128)
    assert targets == [desc.data.base_addr + 128]


def test_request_past_end_dropped():
    desc = stride_desc(tiles=1)
    near_end = desc.data.end_addr - 64
    assert miss(table_of(desc), near_end, set()) == []


def test_zero_factor_falls_back_to_nextline():
    table = table_of(stride_desc())
    targets = miss(table, table.base, {1, 2, 3, 4, 5, 6, 7}, l1_size=1024)
    assert targets == [table.base + 128]


def _simulate_recording(monkeypatch, desc, grid, policies=None):
    """Simulate ``desc`` alone on four SMs under ``policies`` (default:
    ``select_policies``), recording each (addr, targets) of ``on_miss``."""
    calls = []
    real = prefetch_mod.on_miss

    def recording(addr, *args, **kwargs):
        targets = real(addr, *args, **kwargs)
        calls.append((addr, targets))
        return targets

    monkeypatch.setattr(prefetch_mod, "on_miss", recording)
    workload = Workload(grid, validate_descriptor_set([desc], grid), 1)
    metrics = simulate(workload, SystemConfig(sm_count=4), baseline_round_robin(grid, 4),
                       policies=policies)
    return metrics, calls


def test_coaccessed_irregular_no_prefetch(monkeypatch):
    desc = make_desc(
        data_dims=(8 * KB, 1, 1), dtile=(KB, 1, 1), ctile=(1, 8, 1),
        pattern=AccessPattern.irregular(), cdmap=(1, 0, 0),
    )
    assert select_policies([desc])[0].prefetch is PrefetchKind.NONE
    metrics, calls = _simulate_recording(monkeypatch, desc, CtaGrid((8, 8, 1)))
    assert metrics.misses > 0
    assert metrics.prefetches_issued == 0 and calls == []


def test_non_inter_thread_no_prefetch(monkeypatch):
    desc = make_desc(ltype=LocalityType.INTRA_THREAD)
    assert select_policies([desc])[0].prefetch is PrefetchKind.NONE
    metrics, calls = _simulate_recording(monkeypatch, desc, CtaGrid((5, 8, 1)))
    assert metrics.misses > 0
    assert metrics.prefetches_issued == 0 and calls == []


def test_policy_nextline_runs_nextline(monkeypatch):
    # A co-accessed regular descriptor whose policy names NEXTLINE gets
    # nextline prefetches, not the stride lookahead its sharing would suggest.
    policies = (DescriptorPolicy(InsertionClass.NORMAL, NEXTLINE),)
    _, calls = _simulate_recording(monkeypatch, make_desc(), CtaGrid((5, 8, 1)), policies)
    assert any(targets for _, targets in calls)
    for addr, targets in calls:
        assert all(target == addr + 128 for target in targets), (addr, targets)


def test_prefetch_evicted_before_its_demand_is_not_useful():
    # One warp replays four demand accesses to a 4-line structure through a
    # one-line L1, under NEXTLINE with normal insertion; each access starts
    # after the one before completes. Worked out by hand:
    #  line 2: miss, prefetches line 3; line 2 lands, then line 3 evicts it.
    #  line 0: miss, prefetches line 1; line 0 evicts line 3 before its
    #          demand, then line 1 evicts line 0.
    #  line 1: hit on the prefetched line, which counts as useful.
    #  line 3: miss on a line prefetched and evicted unused: not useful. Its
    #          next line lies past the structure, so nothing is prefetched.
    grid = CtaGrid((1, 1, 1), warps_per_cta=1)
    desc = make_desc(data_dims=(128, 1, 1), dtile=(128, 1, 1), ctile=(1, 1, 1),
                     cdmap=(1, 0, 0))
    wl = Workload(grid, validate_descriptor_set([desc], grid), 1)
    config = SystemConfig(sm_count=1, l1=CacheConfig(128, ways=1))
    policies = (DescriptorPolicy(InsertionClass.NORMAL, NEXTLINE),)
    events = [AccessEvent(0, 0, 0, line * 128, cycle * 1000)
              for cycle, line in enumerate([2, 0, 1, 3])]
    m = simulate(wl, config, baseline_round_robin(grid, 1), policies=policies, trace_in=events)
    assert (m.hits, m.misses) == (1, 3)
    assert (m.prefetches_issued, m.prefetches_useful) == (2, 1)
    assert m.prefetch_accuracy == 0.5


def test_policy_stride_prefetches_intra_thread(monkeypatch):
    # STRIDE on a regular intra-thread descriptor runs the stride prefetcher.
    desc = make_desc(ltype=LocalityType.INTRA_THREAD)
    policies = (DescriptorPolicy(InsertionClass.HARD_PIN, STRIDE),)
    metrics, calls = _simulate_recording(monkeypatch, desc, CtaGrid((5, 8, 1)), policies)
    assert any(targets for _, targets in calls)
    assert metrics.prefetches_issued > 0


def test_policy_stride_on_irregular_descriptor_is_rejected():
    # An irregular pattern has no stride: each STRIDE target would be the
    # missing address itself, already in flight, so nothing would prefetch.
    grid = CtaGrid((8, 8, 1))
    desc = make_desc(name="samples", data_dims=(8 * KB, 1, 1), dtile=(KB, 1, 1),
                     ctile=(1, 8, 1), pattern=AccessPattern.irregular())
    workload = Workload(grid, validate_descriptor_set([desc], grid), 1)
    with pytest.raises(ConfigMismatch, match="STRIDE.*'samples'.*irregular"):
        simulate(workload, SystemConfig(sm_count=4), baseline_round_robin(grid, 4),
                 policies=(DescriptorPolicy(InsertionClass.SOFT_PIN, STRIDE),))


def test_retire_doubles_distance():
    table = table_of(stride_desc())
    active = {0, 1}
    (before,) = miss(table, table.base, active)
    active.remove(1)
    (after,) = miss(table, table.base, active)
    assert (after - table.base) == 2 * (before - table.base)


def test_retire_last_then_rebuild():
    table = table_of(stride_desc())
    active = {3}
    active.discard(3)
    miss(table, table.base + 3 * 4096, active)
    assert active == {3}


def test_distance_monotone_in_active_tiles():
    table = table_of(stride_desc(tiles=64))
    prev = None
    for n in range(1, 9):
        (target,) = miss(table, table.base, set(range(1, n)), l1_size=64 * KB)
        dist = target - table.base
        if prev is not None:
            assert dist <= prev
        prev = dist


def test_request_stays_inside_structure():
    desc = stride_desc(tiles=4)
    table, active = table_of(desc), set()
    ds = desc.data
    for addr in range(ds.base_addr, ds.end_addr, 512):
        for target in miss(table, addr, active):
            assert contains(ds, target)


_DESC_KINDS = [
    (LocalityType.INTER_THREAD, SharingType.COACCESSED),
    (LocalityType.INTER_THREAD, SharingType.NEARBY),
    (LocalityType.INTRA_THREAD, None),
    (LocalityType.NO_REUSE, None),
]


@st.composite
def _stream_cases(draw):
    """A small grid with one to three descriptors of any kind, each with a
    hand-built policy: any insertion class, and NONE, NEXTLINE or (when the
    pattern is regular) STRIDE. Descriptors may share a base page, so that
    they overlap at different priorities. D-tiles are 24-96 elements of
    4 bytes wide, so most start inside a 128-byte line, and one or two
    elements tall."""
    gx, gy = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    grid = CtaGrid((gx, gy, 1), warps_per_cta=draw(st.sampled_from([1, 2])))
    descs, policies = [], {}
    for i in range(draw(st.integers(1, 3))):
        ltype, sharing = draw(st.sampled_from(_DESC_KINDS))
        width, height = draw(st.sampled_from([24, 32, 40, 96])), draw(st.integers(1, 2))
        stride = draw(st.sampled_from([0, 64, 128, 256]))
        descs.append(make_desc(
            name=f"s{i}", base=draw(st.integers(0, 1)) << 16,
            data_dims=(width * gx, height * gy, 1), dtile=(width, height, 1),
            ctile=(1, 1, 1), cdmap=(1, 2, 3), ltype=ltype, sharing=sharing, priority=i,
            pattern=AccessPattern.regular_stride(stride) if stride else AccessPattern.irregular(),
        ))
        kinds = [NONE, NEXTLINE, STRIDE] if stride else [NONE, NEXTLINE]
        policies[f"s{i}"] = DescriptorPolicy(draw(st.sampled_from(list(InsertionClass))),
                                             draw(st.sampled_from(kinds)))
    descs = validate_descriptor_set(descs, grid)
    zones = draw(st.sampled_from([1, 2]))
    system = SystemConfig(
        sm_count=zones * draw(st.sampled_from([1, 2])),
        zone_count=zones,
        l1=CacheConfig(draw(st.sampled_from([512, 1024, 2048])), ways=draw(st.sampled_from([1, 2])),
                       mshr_entries=draw(st.integers(1, 4))),
        l2=CacheConfig(8 * KB, ways=4),
        max_resident_ctas_per_sm=draw(st.integers(1, 3)),
    )
    placement = None
    if zones > 1:
        placement = draw(st.sampled_from([bitrange(7, 2), bitrange(9, 2), xor_hash(2),
                                          first_touch(2)]))
    return (Workload(grid, descs, draw(st.integers(0, 3))), system,
            tuple(policies[d.data.name] for d in descs), placement)


@settings(max_examples=100, deadline=None)
@given(case=_stream_cases())
def test_stream_tracking_matches_the_code_it_replaced(case):
    # The engine's per-SM sets of streaming D-tiles against the StreamStates
    # they replaced: the same metrics and the same live trace.
    workload, system, policies, placement = case
    schedule = baseline_round_robin(workload.grid, system.sm_count)
    want_trace = []
    oracle = oracles.StreamStateSimulation(workload, system, schedule, placement, policies,
                                           want_trace)
    oracle.run_live()
    trace = []
    live = simulate(workload, system, schedule, placement, policies, trace_sink=trace)
    assert live.json_str() == oracle.metrics().json_str()
    assert trace == want_trace
