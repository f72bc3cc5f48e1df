"""Insertion classes, the way-0 hard-pin rule, pin reset and MSHR accounting."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ldesc_sim import AccessOutcome, CacheConfig, CacheModel, InsertionClass, preset
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
    assert c.sets[0][0].priority == 2  # hard-pinned again


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


# -- differential test against the full-array cache ---------------------------

# The reference: the cache as it stood when every way of every set was built
# up front as an invalid line, kept verbatim (only renamed) as the oracle.
_PRIORITY = {
    InsertionClass.NORMAL: 0,
    InsertionClass.SOFT_PIN: 1,
    InsertionClass.HARD_PIN: 2,
}
_MAX_PRIORITY = _PRIORITY[InsertionClass.HARD_PIN]


class _OracleLine:
    __slots__ = ("tag", "valid", "priority", "last_used")

    def __init__(self) -> None:
        self.tag = 0
        self.valid = False
        self.priority = 0
        self.last_used = 0


class OracleCache:
    """One cache instance, driven by a single simulation context."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.sets = [
            [_OracleLine() for _ in range(config.ways)] for _ in range(config.num_sets)
        ]
        self.mshr: dict[int, InsertionClass] = {}
        self._use_clock = 0

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.config.line_size
        return line % self.config.num_sets, line // self.config.num_sets

    def line_addr(self, addr: int) -> int:
        return addr - addr % self.config.line_size

    def contains(self, addr: int) -> bool:
        set_idx, tag = self._locate(addr)
        return any(l.valid and l.tag == tag for l in self.sets[set_idx])

    def inflight(self, addr: int) -> bool:
        return addr // self.config.line_size in self.mshr

    def access(self, addr: int, iclass: InsertionClass, cycle: int) -> AccessOutcome:
        """Look up one address; on a primary miss, allocate an MSHR entry.

        BYPASS accesses probe the array but never disturb residency, LRU
        state or priorities. Raises MshrFull when a primary miss finds no
        free entry; the caller retries the access on a later cycle.
        """
        set_idx, tag = self._locate(addr)
        for way in self.sets[set_idx]:
            if way.valid and way.tag == tag:
                if iclass is not InsertionClass.BYPASS:
                    self._use_clock += 1
                    way.last_used = self._use_clock
                    way.priority = max(way.priority, _PRIORITY[iclass])
                return AccessOutcome.HIT
        line = addr // self.config.line_size
        if line in self.mshr:
            return AccessOutcome.INFLIGHT_HIT
        if len(self.mshr) >= self.config.mshr_entries:
            raise MshrFull(f"no MSHR entry for line {line:#x}")
        self.mshr[line] = iclass
        return AccessOutcome.MISS

    def fill(self, addr: int, cycle: int) -> None:
        """Complete an outstanding miss and install the line (unless bypassed)."""
        line = addr // self.config.line_size
        iclass = self.mshr.pop(line)
        if iclass is InsertionClass.BYPASS:
            return
        set_idx = line % self.config.num_sets
        ways = self.sets[set_idx]
        victim = None
        for way in ways:
            if not way.valid:
                victim = way
                break
        if victim is None:
            if all(w.priority == _MAX_PRIORITY for w in ways):
                victim = ways[0]
            else:
                victim = min(ways, key=lambda w: (w.priority, w.last_used))
        self._use_clock += 1
        victim.valid = True
        victim.tag = line // self.config.num_sets
        victim.priority = _PRIORITY[iclass]
        victim.last_used = self._use_clock

    def tick(self, cycle: int) -> None:
        """Advance the pin-reset timer; on each period boundary unpin everything."""
        period = self.config.pin_reset_period
        if period > 0 and cycle > 0 and cycle % period == 0:
            for ways in self.sets:
                for way in ways:
                    way.priority = _PRIORITY[InsertionClass.NORMAL]


def _ways(cache, ways):
    """Each set's (tag, priority, last_used) in way order, None for a way
    that holds no line; a CacheModel set stores its filled lines only."""
    return [
        [(w.tag, w.priority, w.last_used) for w in s] + [None] * (ways - len(s))
        for s in cache.sets
    ]


def _oracle_ways(oracle):
    """The same view of an OracleCache, whose every way exists."""
    return [
        [(w.tag, w.priority, w.last_used) if w.valid else None for w in s]
        for s in oracle.sets
    ]


def _call(method, *args):
    try:
        return method(*args)
    except MshrFull as exc:
        return ("MshrFull", str(exc))


LINE = 128
# A line is drawn as (set, tag) from two sets and more tags than ways, so
# that sets fill up and evict. An access draws its insertion class from a
# per-example palette, so that some examples pin nothing but HARD_PIN and
# saturate their sets.
_line = st.tuples(st.integers(0, 1), st.integers(0, 9))
_access = st.tuples(st.just("access"), _line, st.integers(0, LINE - 1), st.integers(0, 3))
# fill: picks one of the outstanding lines, if any
_fill = st.tuples(st.just("fill"), st.integers(0, 3))
_ops = st.one_of(
    _access,
    _access,
    _fill,
    _fill,
    # tick: a cycle, or a multiple of the reset period
    st.tuples(st.just("tick"), st.integers(0, 6), st.booleans()),
    st.tuples(st.just("contains"), _line),
    st.tuples(st.just("inflight"), _line),
)


@given(
    sets=st.integers(1, 8),
    ways=st.integers(1, 8),
    mshr_entries=st.integers(1, 4),
    pin_reset_period=st.sampled_from([0, 3, 8, 50]),
    palette=st.lists(st.sampled_from(list(InsertionClass)), min_size=1, max_size=3),
    ops=st.lists(_ops, min_size=60, max_size=240),
)
def test_cache_matches_full_array_oracle(
    sets, ways, mshr_entries, pin_reset_period, palette, ops
):
    config = CacheConfig(capacity=sets * ways * LINE, ways=ways, line_size=LINE,
                         mshr_entries=mshr_entries, pin_reset_period=pin_reset_period)
    cache, oracle = CacheModel(config), OracleCache(config)

    def addr(line, offset=0):
        set_pick, tag = line
        return (tag * sets + set_pick % sets) * LINE + offset

    for cycle, op in enumerate(ops):
        kind = op[0]
        if kind == "access":
            _, line, offset, pick = op
            args = (addr(line, offset), palette[pick % len(palette)], cycle)
        elif kind == "fill":
            if not oracle.mshr:
                continue
            args = (list(oracle.mshr)[op[1] % len(oracle.mshr)] * LINE, cycle)
        elif kind == "tick":
            _, n, on_boundary = op
            args = (n * pin_reset_period if on_boundary else n,)
        else:
            args = (addr(op[1]),)
        assert _call(getattr(cache, kind), *args) == _call(getattr(oracle, kind), *args), op
        assert _ways(cache, ways) == _oracle_ways(oracle), op
        assert cache.mshr == oracle.mshr, op


def test_lines_exist_only_once_filled():
    config = preset("paper-numa").l2
    cache = CacheModel(config)
    assert all(s == [] for s in cache.sets)
    stride = cache.num_sets * config.line_size  # same set, new tag each time
    for k in range(1, config.ways + 3):
        touch(cache, 3 * config.line_size + k * stride)
        assert len(cache.sets[3]) == min(k, config.ways)
    assert sum(len(s) for s in cache.sets) == config.ways
