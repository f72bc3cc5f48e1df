"""Insertion classes, the way-0 hard-pin rule, pin reset and MSHR accounting."""

import random
import sys
from enum import Enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ldesc_sim import AccessOutcome, CacheConfig, CacheModel, InsertionClass, preset
from ldesc_sim.errors import MshrFull

from oracles import OracleCache

HARD = InsertionClass.HARD_PIN
SOFT = InsertionClass.SOFT_PIN
NORMAL = InsertionClass.NORMAL
BYPASS = InsertionClass.BYPASS


def small_cache(**kw):
    defaults = dict(capacity=2048, ways=4, line_size=128, mshr_entries=32,
                    pin_reset_period=100_000)
    defaults.update(kw)
    return CacheModel(CacheConfig(**defaults))


def contains(cache, addr):
    line = addr // cache.line_size
    return line in cache.sets[line % cache.num_sets]


def inflight(cache, addr):
    return addr // cache.line_size in cache.mshr


def touch(cache, addr, iclass=NORMAL, cycle=0):
    out = cache.access(addr, iclass, cycle)
    if out is AccessOutcome.MISS:
        cache.fill(addr, cycle)
    return out


def test_hit_after_fill():
    c = small_cache()
    assert touch(c, 0x100) is AccessOutcome.MISS
    assert c.access(0x100, NORMAL, 1) is AccessOutcome.HIT


def test_inflight_hit_before_fill():
    c = small_cache()
    assert c.access(0x100, NORMAL, 0) is AccessOutcome.MISS
    assert c.access(0x140, NORMAL, 1) is AccessOutcome.INFLIGHT_HIT  # same line
    c.fill(0x100, 5)
    assert c.access(0x100, NORMAL, 6) is AccessOutcome.HIT


def test_mshr_full_stalls():
    c = small_cache(mshr_entries=2)
    c.access(0x0, NORMAL, 0)
    c.access(0x1000, NORMAL, 0)
    with pytest.raises(MshrFull):
        c.access(0x2000, NORMAL, 0)
    c.fill(0x0, 1)
    assert c.access(0x2000, NORMAL, 2) is AccessOutcome.MISS


def test_reserve_takes_no_entry_for_a_resident_or_inflight_line_or_a_full_mshr():
    c = small_cache(mshr_entries=2)
    touch(c, 0x0, HARD)
    c.access(0x1000, NORMAL, 0)
    before = ([dict(s) for s in c.sets], dict(c.mshr))
    assert not c.reserve(0x40, 1)  # resident
    assert not c.reserve(0x1000, 1)  # in flight
    assert ([dict(s) for s in c.sets], dict(c.mshr)) == before
    assert c.reserve(0x2000, 1)
    assert c.mshr[0x2000 // 128] is SOFT
    before = ([dict(s) for s in c.sets], dict(c.mshr))
    assert not c.reserve(0x3000, 2)  # no free entry
    assert ([dict(s) for s in c.sets], dict(c.mshr)) == before
    c.fill(0x2000, 3)
    assert c.sets[0][0x2000 // 128] == 1  # soft pinned


def test_lookup_fill_hit_keeps_the_pin_and_becomes_most_recent():
    c = small_cache()
    step = 4 * 128  # same-set lines
    touch(c, 0, HARD)
    touch(c, step, NORMAL, cycle=1)
    assert c.lookup_fill(0x40, 2)  # line 0, hit at NORMAL
    assert list(c.sets[0].items()) == [(4, 0), (0, 2)]
    assert not c.lookup_fill(2 * step, 3)  # a miss installs the line, normal
    assert list(c.sets[0].items()) == [(4, 0), (0, 2), (8, 0)] and not c.mshr


def test_hard_pin_saturated_set_evicts_way0():
    c = small_cache()  # 4 sets; same-set lines are 4 lines apart
    step = 4 * 128
    lines = [i * step for i in range(5)]
    for a in lines[:4]:
        touch(c, a, HARD)
    assert c.way0[0] == 0  # the first line filled into set 0
    touch(c, lines[4], HARD)
    assert c.way0[0] == lines[4] // 128  # way 0 replaced
    assert list(c.sets[0]) == [4, 8, 12, 16]  # ways 1..3 untouched
    for a in lines[1:4]:
        assert c.access(a, HARD, 10) is AccessOutcome.HIT


def test_bypass_never_allocates():
    c = small_cache()
    assert touch(c, 0x100, BYPASS) is AccessOutcome.MISS
    assert not contains(c, 0x100)
    assert c.access(0x100, NORMAL, 1) is AccessOutcome.MISS


def test_bypass_does_not_disturb_lru():
    c = small_cache()
    step = 4 * 128
    for i in range(4):
        touch(c, i * step, NORMAL, cycle=i)
    # A bypass hit on the LRU line must not refresh it.
    assert c.access(0, BYPASS, 10) is AccessOutcome.HIT
    touch(c, 4 * step, NORMAL, cycle=11)
    assert not contains(c, 0)  # line 0 was still LRU and got evicted


def test_fill_of_bypassed_line_no_residency():
    c = small_cache()
    c.access(0x300, BYPASS, 0)
    c.fill(0x300, 3)
    assert not contains(c, 0x300)


def test_pin_reset_at_period():
    # Time advances with the cycle passed to access/fill; a BYPASS hit
    # changes no priority itself.
    c = small_cache(pin_reset_period=100)
    touch(c, 0x0, HARD)
    touch(c, 0x80, SOFT)
    assert c.access(0x0, BYPASS, 99) is AccessOutcome.HIT
    assert any(p > 0 for s in c.sets for p in s.values())
    assert c.access(0x0, BYPASS, 100) is AccessOutcome.HIT
    assert all(p == 0 for s in c.sets for p in s.values())
    assert contains(c, 0x0) and contains(c, 0x80)  # residency survives


def test_repin_after_reset():
    c = small_cache(pin_reset_period=10)
    touch(c, 0x0, HARD)
    assert c.access(0x0, BYPASS, 10) is AccessOutcome.HIT
    assert c.sets[0][0] == 0  # set 0, line 0
    assert c.access(0x0, HARD, 11) is AccessOutcome.HIT
    assert c.sets[0][0] == 2  # hard-pinned again


def test_pin_reset_keeps_recency_order():
    # Before the reset the victims would be the unpinned lines 12 and 4; after
    # it every line is normal, and they go least recently used first, pinned
    # or not.
    c = small_cache(pin_reset_period=100)
    step = 4 * 128
    lines = [0, step, 2 * step, 3 * step]  # lines 0, 4, 8 and 12 of set 0
    for i, iclass in enumerate([HARD, NORMAL, SOFT, NORMAL]):
        touch(c, lines[i], iclass, cycle=i)
    touch(c, step, NORMAL, cycle=5)  # line 4 becomes the most recently used
    evicted = []
    for i in range(4, 8):
        touch(c, i * step, NORMAL, cycle=100 + i)
        evicted += [a for a in lines if not contains(c, a) and a not in evicted]
    assert evicted == [0, 2 * step, 3 * step, step]


def test_thrash_protection_hit_rates():
    # 2 KiB 4-way cache, 4 KiB cyclic working set: LRU converges to 0%
    # steady-state hits; hard pinning keeps ways 1..3 resident for 37.5%.
    def run(iclass):
        c = small_cache()
        lines = [i * 128 for i in range(32)]
        for _ in range(3):  # warmup laps
            for a in lines:
                touch(c, a, iclass)
        steady = [touch(c, a, iclass) for _ in range(8) for a in lines]
        hits, misses = steady.count(AccessOutcome.HIT), steady.count(AccessOutcome.MISS)
        return hits / (hits + misses)

    assert run(NORMAL) == 0.0
    assert run(HARD) == pytest.approx(0.375, abs=0.01)


def test_eviction_prefers_unpinned():
    rng = random.Random(4)
    c = small_cache()
    step = 4 * 128
    pinned = [0 * step, 1 * step]
    for a in pinned:
        touch(c, a, HARD)
    touch(c, 2 * step, NORMAL)
    for i in range(3, 40):
        touch(c, i * step, rng.choice([NORMAL, SOFT]))
        for a in pinned:
            assert contains(c, a), "pinned line evicted while unpinned lines exist"


def test_soft_pin_between_normal_and_hard():
    c = small_cache()
    step = 4 * 128
    touch(c, 0 * step, HARD)
    touch(c, 1 * step, SOFT)
    touch(c, 2 * step, NORMAL, cycle=5)
    touch(c, 3 * step, NORMAL, cycle=6)
    touch(c, 4 * step, SOFT)  # victim must be the LRU NORMAL line
    assert not contains(c, 2 * step)
    assert contains(c, 0) and contains(c, step) and contains(c, 3 * step)


def test_conservation_counts():
    c = small_cache(mshr_entries=64)
    rng = random.Random(8)
    outcomes = []
    outstanding = []
    fills = 0
    for cycle in range(2000):
        addr = rng.randrange(0, 8192, 4)
        try:
            out = c.access(addr, rng.choice([NORMAL, SOFT, HARD]), cycle)
        except MshrFull:
            continue
        outcomes.append(out)
        if out is AccessOutcome.MISS:
            outstanding.append(addr)
        if outstanding and rng.random() < 0.5:
            c.fill(outstanding.pop(0), cycle)
            fills += 1
    assert set(outcomes) == set(AccessOutcome)
    # Every primary miss holds one MSHR entry until its fill.
    assert outcomes.count(AccessOutcome.MISS) == fills + len(c.mshr)


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(capacity=1000, ways=4, line_size=128)
    with pytest.raises(ValueError):
        CacheConfig(capacity=2048, ways=4, line_size=100)


@pytest.mark.parametrize(
    "field,value",
    [("capacity", 0), ("ways", 0), ("mshr_entries", 0), ("pin_reset_period", -1)],
)
def test_config_rejects_degenerate_sizes(field, value):
    # With no MSHR entry a run never returns; with no way it divides by zero.
    with pytest.raises(ValueError, match=field):
        CacheConfig(**{"capacity": 2048, "ways": 4, field: value})


# -- differential test against the full-array cache ---------------------------


def _ways(cache):
    """Each set's (tag, priority) pairs, least recently used first, and the
    tag in its way 0, None for a set that holds no line."""
    n = cache.num_sets
    return [
        ([(line // n, p) for line, p in s.items()],
         cache.way0[i] // n if i in cache.way0 else None)
        for i, s in enumerate(cache.sets)
    ]


def _oracle_ways(oracle):
    """The same view of an OracleCache, whose every way exists."""
    return [
        ([(w.tag, w.priority) for w in sorted(s, key=lambda w: w.last_used) if w.valid],
         s[0].tag if s[0].valid else None)
        for s in oracle.sets
    ]


def _call(method, *args):
    try:
        return method(*args)
    except MshrFull as exc:
        return ("MshrFull", str(exc))


LINE = 128
# Each op is drawn as one integer and decoded into a tuple, which Hypothesis
# draws far faster than a list of tuples. A line is (set, tag) from two sets
# and more tags than ways, so that sets fill up and evict. An access draws
# its insertion class from a per-example palette, so that some examples pin
# nothing but HARD_PIN and saturate their sets.
_KINDS = ("access", "access", "fill", "fill", "advance", "contains", "inflight",
          "reserve", "lookup_fill")
_OP_CODES = len(_KINDS) * 2 * 10 * LINE * 4


def _decode_op(code):
    kind, code = _KINDS[code % len(_KINDS)], code // len(_KINDS)
    line = (code % 2, code // 2 % 10)
    if kind in ("access", "reserve", "lookup_fill"):
        return kind, line, code // 20 % LINE, code // (20 * LINE) % 4
    if kind == "fill":
        # picks one of the outstanding lines, if any
        return kind, code % 4
    if kind == "advance":
        # advance time by a few cycles, or to the n-th next multiple of the period
        return kind, 1 + code % 6, bool(code // 6 % 2)
    return kind, line


@given(
    sets=st.integers(1, 8),
    ways=st.integers(1, 8),
    mshr_entries=st.integers(1, 4),
    pin_reset_period=st.sampled_from([0, 3, 8, 50]),
    palette=st.lists(st.sampled_from(list(InsertionClass)), min_size=1, max_size=3),
    codes=st.lists(st.integers(0, _OP_CODES - 1), min_size=60, max_size=240),
)
def test_cache_matches_full_array_oracle(
    sets, ways, mshr_entries, pin_reset_period, palette, codes
):
    # ``reserve`` and ``lookup_fill`` are checked against the oracle calls
    # that they stand for on the engine's miss path.
    config = CacheConfig(capacity=sets * ways * LINE, ways=ways, line_size=LINE,
                         mshr_entries=mshr_entries, pin_reset_period=pin_reset_period)
    cache, oracle = CacheModel(config), OracleCache(config)

    def addr(line, offset=0):
        set_pick, tag = line
        return (tag * sets + set_pick % sets) * LINE + offset

    def tick():
        # Before each oracle access or fill, its pins reset by the rule the
        # engine once applied on every visited cycle: one tick for any
        # boundary crossed since the last one.
        nonlocal last_tick
        boundary = cycle // pin_reset_period * pin_reset_period if pin_reset_period else 0
        if boundary > last_tick:
            oracle.tick(boundary)
        last_tick = cycle

    def oracle_reserve(a):
        if oracle.contains(a) or oracle.inflight(a):
            return False
        tick()
        return _call(oracle.access, a, SOFT, cycle) is AccessOutcome.MISS

    def oracle_lookup_fill(a):
        tick()
        out = oracle.access(a, NORMAL, cycle)
        if out is AccessOutcome.MISS:
            oracle.fill(a, cycle)
        return out is AccessOutcome.HIT

    cycle = last_tick = 0
    for op in map(_decode_op, codes):
        kind = op[0]
        if kind == "advance":
            _, n, to_boundary = op
            if to_boundary and pin_reset_period:
                cycle = (cycle // pin_reset_period + n) * pin_reset_period
            else:
                cycle += n
            continue
        if kind in ("access", "fill"):
            if kind == "access":
                _, line, offset, pick = op
                args = (addr(line, offset), palette[pick % len(palette)], cycle)
            elif oracle.mshr:
                args = (list(oracle.mshr)[op[1] % len(oracle.mshr)] * LINE, cycle)
            else:
                continue
            tick()
            got, want = _call(getattr(cache, kind), *args), _call(getattr(oracle, kind), *args)
        elif kind == "reserve":
            a = addr(op[1], op[2])
            got, want = cache.reserve(a, cycle), oracle_reserve(a)
        elif kind == "lookup_fill":
            a = addr(op[1], op[2])
            if oracle.inflight(a) or len(oracle.mshr) == mshr_entries:
                continue  # the access would not miss into a same-cycle fill
            got, want = cache.lookup_fill(a, cycle), oracle_lookup_fill(a)
        else:
            a = addr(op[1])
            helper = contains if kind == "contains" else inflight
            got, want = helper(cache, a), getattr(oracle, kind)(a)
        assert got == want, op
        assert _ways(cache) == _oracle_ways(oracle), op
        assert cache.mshr == oracle.mshr, op


def test_lines_exist_only_once_filled():
    config = preset("paper-numa").l2
    cache = CacheModel(config)
    assert not any(cache.sets) and not cache.way0
    stride = cache.num_sets * config.line_size  # same set, new tag each time
    for k in range(1, config.ways + 3):
        touch(cache, 3 * config.line_size + k * stride)
        assert len(cache.sets[3]) == min(k, config.ways)
    assert sum(len(s) for s in cache.sets) == config.ways


def test_insertion_classes_hash_without_python_code():
    # Enum.__hash__ is a Python function that hashes the member's name; the
    # cache looks an insertion class up on every hit and every fill.
    enum_hash = Enum.__hash__.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is enum_hash:
            calls.append(frame.f_code)

    c = small_cache(mshr_entries=64)
    sys.setprofile(profile)
    try:
        for iclass in (NORMAL, SOFT, HARD, BYPASS):  # misses, evictions, hits
            for a in range(0, 8 * 512, 512):
                touch(c, a, iclass)
                touch(c, a, iclass)
    finally:
        sys.setprofile(None)
    assert c.sets[0] and not calls
