"""Prefetch distance formula, nextline fallback, bounds and stream retirement,
and the prefetcher kind a run's policy names."""

from ldesc_sim import (
    CtaGrid,
    DescriptorPolicy,
    InsertionClass,
    LocalityType,
    PolicySet,
    PrefetchKind,
    SharingType,
    StreamState,
    SystemConfig,
    Workload,
    baseline_round_robin,
    select_policies,
    simulate,
    validate_descriptor_set,
)
from ldesc_sim import prefetch as prefetch_mod
from ldesc_sim.descriptor import AccessPattern
from ldesc_sim.prefetch import on_miss

from conftest import make_desc
from oracles import contains

STRIDE, NEXTLINE = PrefetchKind.STRIDE, PrefetchKind.NEXTLINE

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


def stream(desc, *active):
    state = StreamState.for_descriptor(desc)
    state.active_dtiles.update(active)
    return state


def test_distance_formula_exact():
    # l1 32768, 2 active tiles, width 4096 -> factor 4; stride 128 -> +512.
    desc = stride_desc()
    state = stream(desc, 0)
    targets = on_miss(desc.data.base_addr + 4096, STRIDE, desc, 32768, state)
    assert state.active_dtiles == {0, 1}
    assert targets == [desc.data.base_addr + 4096 + 512]


def test_distance_halves_when_active_doubles():
    desc = stride_desc()
    two = stream(desc, 7)
    (target2,) = on_miss(desc.data.base_addr, STRIDE, desc, 32768, two)  # 2 active
    four = stream(desc, 5, 6, 7)
    (target4,) = on_miss(desc.data.base_addr, STRIDE, desc, 32768, four)  # 4 active
    assert target2 - desc.data.base_addr == 2 * (target4 - desc.data.base_addr)


def test_nearby_nextline():
    desc = make_desc(
        data_dims=(8 * KB, 1, 1), dtile=(KB, 1, 1), ctile=(1, 8, 1),
        sharing=SharingType.NEARBY, cdmap=(1, 0, 0),
    )
    state = StreamState.for_descriptor(desc)
    targets = on_miss(desc.data.base_addr, NEXTLINE, desc, 32768, state, line_size=128)
    assert targets == [desc.data.base_addr + 128]


def test_request_past_end_dropped():
    desc = stride_desc(tiles=1)
    state = StreamState.for_descriptor(desc)
    near_end = desc.data.end_addr - 64
    assert on_miss(near_end, STRIDE, desc, 32768, state) == []


def test_zero_factor_falls_back_to_nextline():
    desc = stride_desc()
    state = stream(desc, 1, 2, 3, 4, 5, 6, 7)
    targets = on_miss(desc.data.base_addr, STRIDE, desc, 1024, state, line_size=128)
    assert targets == [desc.data.base_addr + 128]


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
    assert select_policies([desc]).per_desc[0].prefetch is PrefetchKind.NONE
    metrics, calls = _simulate_recording(monkeypatch, desc, CtaGrid((8, 8, 1)))
    assert metrics.misses > 0
    assert metrics.prefetches_issued == 0 and calls == []


def test_non_inter_thread_no_prefetch(monkeypatch):
    desc = make_desc(ltype=LocalityType.INTRA_THREAD)
    assert select_policies([desc]).per_desc[0].prefetch is PrefetchKind.NONE
    metrics, calls = _simulate_recording(monkeypatch, desc, CtaGrid((5, 8, 1)))
    assert metrics.misses > 0
    assert metrics.prefetches_issued == 0 and calls == []


def test_policy_nextline_runs_nextline(monkeypatch):
    # A co-accessed regular descriptor whose policy names NEXTLINE gets
    # nextline prefetches, not the stride lookahead its sharing would suggest.
    policies = PolicySet((DescriptorPolicy(InsertionClass.NORMAL, NEXTLINE),))
    _, calls = _simulate_recording(monkeypatch, make_desc(), CtaGrid((5, 8, 1)), policies)
    assert any(targets for _, targets in calls)
    for addr, targets in calls:
        assert all(target == addr + 128 for target in targets), (addr, targets)


def test_policy_stride_prefetches_intra_thread(monkeypatch):
    # STRIDE on a regular intra-thread descriptor runs the stride prefetcher.
    desc = make_desc(ltype=LocalityType.INTRA_THREAD)
    policies = PolicySet((DescriptorPolicy(InsertionClass.HARD_PIN, STRIDE),))
    metrics, calls = _simulate_recording(monkeypatch, desc, CtaGrid((5, 8, 1)), policies)
    assert any(targets for _, targets in calls)
    assert metrics.prefetches_issued > 0


def test_retire_doubles_distance():
    desc = stride_desc()
    state = stream(desc, 0, 1)
    (before,) = on_miss(desc.data.base_addr, STRIDE, desc, 32768, state)
    state.active_dtiles.remove(1)
    (after,) = on_miss(desc.data.base_addr, STRIDE, desc, 32768, state)
    assert (after - desc.data.base_addr) == 2 * (before - desc.data.base_addr)


def test_retire_last_then_rebuild():
    desc = stride_desc()
    state = stream(desc, 3)
    state.active_dtiles.discard(3)
    on_miss(desc.data.base_addr + 3 * 4096, STRIDE, desc, 32768, state)
    assert state.active_dtiles == {3}


def test_distance_monotone_in_active_tiles():
    desc = stride_desc(tiles=64)
    prev = None
    for n in range(1, 9):
        state = stream(desc, *range(1, n))
        (target,) = on_miss(desc.data.base_addr, STRIDE, desc, 64 * KB, state)
        dist = target - desc.data.base_addr
        if prev is not None:
            assert dist <= prev
        prev = dist


def test_request_stays_inside_structure():
    desc = stride_desc(tiles=4)
    state = StreamState.for_descriptor(desc)
    ds = desc.data
    for addr in range(ds.base_addr, ds.end_addr, 512):
        for target in on_miss(addr, STRIDE, desc, 32768, state):
            assert contains(ds, target)
