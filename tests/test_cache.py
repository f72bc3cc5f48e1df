"""Insertion classes, the way-0 hard-pin rule, pin reset and MSHR accounting."""

import random

import pytest

from ldesc_sim import AccessOutcome, CacheConfig, CacheModel, InsertionClass
from ldesc_sim.errors import MshrFull

HARD = InsertionClass.HARD_PIN
SOFT = InsertionClass.SOFT_PIN
NORMAL = InsertionClass.NORMAL
BYPASS = InsertionClass.BYPASS


def small_cache(**kw):
    defaults = dict(capacity=2048, ways=4, line_size=128, mshr_entries=32,
                    pin_reset_period=100_000)
    defaults.update(kw)
    return CacheModel(CacheConfig(**defaults))


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


def test_hard_pin_saturated_set_evicts_way0():
    c = small_cache()  # 4 sets; same-set lines are 4 lines apart
    step = 4 * 128
    lines = [i * step for i in range(5)]
    for a in lines[:4]:
        touch(c, a, HARD)
    sets = c.sets[0]
    tags_before = [w.tag for w in sets]
    touch(c, lines[4], HARD)
    tags_after = [w.tag for w in sets]
    assert tags_after[0] != tags_before[0]  # way 0 replaced
    assert tags_after[1:] == tags_before[1:]  # ways 1..3 untouched
    for a in lines[1:4]:
        assert c.access(a, HARD, 10) is AccessOutcome.HIT


def test_bypass_never_allocates():
    c = small_cache()
    assert touch(c, 0x100, BYPASS) is AccessOutcome.MISS
    assert not c.contains(0x100)
    assert c.access(0x100, NORMAL, 1) is AccessOutcome.MISS


def test_bypass_does_not_disturb_lru():
    c = small_cache()
    step = 4 * 128
    for i in range(4):
        touch(c, i * step, NORMAL, cycle=i)
    # A bypass hit on the LRU line must not refresh it.
    assert c.access(0, BYPASS, 10) is AccessOutcome.HIT
    touch(c, 4 * step, NORMAL, cycle=11)
    assert not c.contains(0)  # line 0 was still LRU and got evicted


def test_fill_of_bypassed_line_no_residency():
    c = small_cache()
    c.access(0x300, BYPASS, 0)
    c.fill(0x300, 3)
    assert not c.contains(0x300)


def test_pin_reset_at_period():
    c = small_cache(pin_reset_period=100)
    touch(c, 0x0, HARD)
    touch(c, 0x80, SOFT)
    c.tick(99)
    assert any(w.priority > 0 for s in c.sets for w in s)
    c.tick(100)
    assert all(w.priority == 0 for s in c.sets for w in s)
    assert c.contains(0x0) and c.contains(0x80)  # residency survives


def test_repin_after_reset():
    c = small_cache(pin_reset_period=10)
    touch(c, 0x0, HARD)
    c.tick(10)
    assert c.access(0x0, HARD, 11) is AccessOutcome.HIT
    way = next(w for w in c.sets[0] if w.valid)
    assert way.priority == 2  # hard-pinned again


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
            assert c.contains(a), "pinned line evicted while unpinned lines exist"


def test_soft_pin_between_normal_and_hard():
    c = small_cache()
    step = 4 * 128
    touch(c, 0 * step, HARD)
    touch(c, 1 * step, SOFT)
    touch(c, 2 * step, NORMAL, cycle=5)
    touch(c, 3 * step, NORMAL, cycle=6)
    touch(c, 4 * step, SOFT)  # victim must be the LRU NORMAL line
    assert not c.contains(2 * step)
    assert c.contains(0) and c.contains(step) and c.contains(3 * step)


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
