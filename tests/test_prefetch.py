"""Prefetch distance formula, nextline fallback, bounds and stream retirement."""

import pytest

from ldesc_sim import LocalityType, SharingType, StreamState
from ldesc_sim.descriptor import AccessPattern
from ldesc_sim.errors import UnknownStream
from ldesc_sim.prefetch import on_miss, retire_stream

from conftest import make_desc

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
    targets = on_miss(desc.data.base_addr + 4096, desc, 32768, state)
    assert state.active_dtiles == {0, 1}
    assert targets == [desc.data.base_addr + 4096 + 512]


def test_distance_halves_when_active_doubles():
    desc = stride_desc()
    two = stream(desc, 7)
    (target2,) = on_miss(desc.data.base_addr, desc, 32768, two)  # 2 active
    four = stream(desc, 5, 6, 7)
    (target4,) = on_miss(desc.data.base_addr, desc, 32768, four)  # 4 active
    assert target2 - desc.data.base_addr == 2 * (target4 - desc.data.base_addr)


def test_nearby_nextline():
    desc = make_desc(
        data_dims=(8 * KB, 1, 1), dtile=(KB, 1, 1), ctile=(1, 8, 1),
        sharing=SharingType.NEARBY, cdmap=(1, 0, 0),
    )
    state = StreamState.for_descriptor(desc)
    targets = on_miss(desc.data.base_addr, desc, 32768, state, line_size=128)
    assert targets == [desc.data.base_addr + 128]


def test_request_past_end_dropped():
    desc = stride_desc(tiles=1)
    state = StreamState.for_descriptor(desc)
    near_end = desc.data.end_addr - 64
    assert on_miss(near_end, desc, 32768, state) == []


def test_zero_factor_falls_back_to_nextline():
    desc = stride_desc()
    state = stream(desc, 1, 2, 3, 4, 5, 6, 7)
    targets = on_miss(desc.data.base_addr, desc, 1024, state, line_size=128)
    assert targets == [desc.data.base_addr + 128]


def test_coaccessed_irregular_no_prefetch():
    desc = make_desc(
        data_dims=(8 * KB, 1, 1), dtile=(KB, 1, 1), ctile=(1, 8, 1),
        pattern=AccessPattern.irregular(), cdmap=(1, 0, 0),
    )
    state = StreamState.for_descriptor(desc)
    assert on_miss(desc.data.base_addr, desc, 32768, state) == []
    assert state.active_dtiles  # still tracked


def test_non_inter_thread_no_prefetch():
    desc = make_desc(ltype=LocalityType.INTRA_THREAD)
    state = StreamState.for_descriptor(desc)
    assert on_miss(desc.data.base_addr, desc, 32768, state) == []
    assert not state.active_dtiles


def test_retire_doubles_distance():
    desc = stride_desc()
    state = stream(desc, 0, 1)
    (before,) = on_miss(desc.data.base_addr, desc, 32768, state)
    retire_stream(1, state)
    (after,) = on_miss(desc.data.base_addr, desc, 32768, state)
    assert (after - desc.data.base_addr) == 2 * (before - desc.data.base_addr)


def test_retire_last_then_rebuild():
    desc = stride_desc()
    state = stream(desc, 3)
    retire_stream(3, state)
    on_miss(desc.data.base_addr + 3 * 4096, desc, 32768, state)
    assert state.active_dtiles == {3}


def test_retire_unknown_stream():
    state = stream(stride_desc(), 1)
    with pytest.raises(UnknownStream):
        retire_stream(2, state)


def test_distance_monotone_in_active_tiles():
    desc = stride_desc(tiles=64)
    prev = None
    for n in range(1, 9):
        state = stream(desc, *range(1, n))
        (target,) = on_miss(desc.data.base_addr, desc, 64 * KB, state)
        dist = target - desc.data.base_addr
        if prev is not None:
            assert dist <= prev
        prev = dist


def test_request_stays_inside_structure():
    desc = stride_desc(tiles=4)
    state = StreamState.for_descriptor(desc)
    ds = desc.data
    for addr in range(ds.base_addr, ds.end_addr, 512):
        for target in on_miss(addr, desc, 32768, state):
            assert ds.contains(target)
