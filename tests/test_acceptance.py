"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Headline percentages from large-scale GPU studies are not
reproducible at desk scale; these criteria pin the algorithmic properties
and directional effects instead.
"""

import dataclasses
import itertools
import random
import time
from pathlib import Path

import pytest

from ldesc_sim import (
    AccessEvent,
    CacheConfig,
    CacheModel,
    CtaGrid,
    InsertionClass,
    PrefetchKind,
    TileTable,
    Workload,
    assign_clusters,
    baseline_first_touch,
    baseline_round_robin,
    form_clusters,
    generate_accesses,
    normal_policies,
    place_and_partition,
    simulate,
    validate_descriptor_set,
    zone_of_address,
)
from ldesc_sim.cache import AccessOutcome
from ldesc_sim.cli import main
from ldesc_sim.config import load_config, run_experiment
from ldesc_sim.numa import LOW_BIT_MAX, LOW_BIT_MIN, bitrange
from ldesc_sim.prefetch import on_miss

import oracles
from conftest import make_desc
from oracles import working_set
from test_numa import random_two_desc_instance, search_plan
from test_sched import alg1_reference, _descs_for

KB = 1024
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS — {text}")


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_criterion_1_alg1_oracle_equivalence():
    t0 = time.monotonic()
    cases = 0
    for gx, gy, gz in itertools.product(range(1, 7), range(1, 7), range(1, 3)):
        grid = CtaGrid((gx, gy, gz))
        ctiles = list(itertools.product(_divisors(gx), _divisors(gy), _divisors(gz)))
        for ct in ctiles:
            for sm in range(1, 9):
                got = form_clusters(_descs_for([ct]), grid, sm).dims
                assert got == alg1_reference([ct], (gx, gy, gz), sm)
                cases += 1
        for ct1, ct2 in itertools.product(ctiles, repeat=2):
            for sm in (1, 2, 4, 8):
                got = form_clusters(_descs_for([ct1, ct2]), grid, sm).dims
                assert got == alg1_reference([ct1, ct2], (gx, gy, gz), sm)
                cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, f"cluster formation matches the pseudocode oracle on {cases} "
              f"cases in {elapsed:.1f}s")


def test_criterion_2_alg2_optimality():
    t0 = time.monotonic()
    rng = random.Random(42)
    checked = 0
    while checked < 50:
        descs, grid, zone_count = random_two_desc_instance(rng)
        assert search_plan(descs, grid, zone_count) == oracles.placement_plan(
            descs, grid, zone_count)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(2, f"placement search returns the exhaustive reference's plan on "
              f"{checked} instances in {elapsed:.1f}s")


def test_criterion_3_working_set_reduction():
    cfg = load_config(CONFIGS / "histo.json")
    wl = Workload(cfg.grid, cfg.descs, cfg.seed)
    rr_events: list[AccessEvent] = []
    simulate(
        wl, cfg.system, baseline_round_robin(cfg.grid, 4),
        policies=normal_policies(cfg.descs), trace_sink=rr_events,
    )
    cls = form_clusters(cfg.descs, cfg.grid, 4)
    led_events: list[AccessEvent] = []
    simulate(
        wl, cfg.system, assign_clusters(cls, cfg.grid, 4),
        policies=normal_policies(cfg.descs), trace_sink=led_events,
    )
    rr_ws = working_set(rr_events)[0]
    led_ws = working_set(led_events)[0]
    assert rr_ws == 5 * 32  # five data tiles of 32 lines
    assert led_ws == 2 * 32  # two data tiles
    reduction = 1 - led_ws / rr_ws
    assert reduction == 0.6
    report(3, f"SM 0 working set drops from {rr_ws} to {led_ws} lines "
              f"({reduction:.0%} reduction) under cluster scheduling")


def test_criterion_4_numa_access_efficiency():
    cfg = load_config(CONFIGS / "numa_stripe.json")
    led = run_experiment(cfg)
    assert led.access_efficiency == 1.0
    for share in led.zone_access_distribution:
        assert share == pytest.approx(0.25, abs=0.02)
    xor = run_experiment(dataclasses.replace(cfg, policy="rr", placement="xor"))
    assert xor.access_efficiency == pytest.approx(0.25, abs=0.05)
    report(4, f"descriptor placement reaches efficiency {led.access_efficiency:.2f} "
              f"with zone shares {led.zone_access_distribution}; XOR hashing "
              f"yields {xor.access_efficiency:.2f}")


def test_criterion_5_first_touch_skew():
    grid = CtaGrid((4, 1, 1), warps_per_cta=2)
    desc = make_desc(
        elem=4, data_dims=(16 * KB, 1, 1), dtile=(4 * KB, 1, 1), ctile=(1, 1, 1),
        cdmap=(1, 0, 0),
    )
    descs = validate_descriptor_set([desc], grid)
    # Run-ahead trace: CTA 0 (zone 0) issues everything before the others.
    table = TileTable(desc, grid)
    trace = []
    for x in range(4):  # CTA (x, 0, 0) has flat id x
        for _, addr in generate_accesses(table, x, seed=1):
            trace.append((x, addr))
    mapping, _ = baseline_first_touch(grid, 4, trace, sm_count=8)
    ft_counts = [0, 0, 0, 0]
    for _, addr in trace:
        ft_counts[oracles.zone_of_address(addr, mapping, 4)] += 1
    ft_max_share = max(ft_counts) / len(trace)
    assert ft_max_share >= 0.9

    plan = place_and_partition(descs, grid, 4)
    led_counts = [0, 0, 0, 0]
    for _, addr in trace:
        led_counts[zone_of_address(addr, plan.per_structure["a"], 4)] += 1
    led_max_share = max(led_counts) / len(trace)
    assert led_max_share <= 0.30
    report(5, f"first touch funnels {ft_max_share:.0%} of accesses into one "
              f"zone; the descriptor plan caps the largest share at "
              f"{led_max_share:.0%}")


def test_criterion_6_hard_pin_thrash_resistance():
    def steady_hit_rate(iclass):
        cache = CacheModel(CacheConfig(capacity=2 * KB, ways=4, line_size=128))
        lines = [i * 128 for i in range(32)]  # 4 KiB cyclic trace
        steady = []
        for lap in range(12):
            for addr in lines:
                out = cache.access(addr, iclass, 0)
                if out is AccessOutcome.MISS:
                    cache.fill(addr, 0)
                if lap >= 4:
                    steady.append(out)
        hits, misses = steady.count(AccessOutcome.HIT), steady.count(AccessOutcome.MISS)
        return hits / (hits + misses)

    lru = steady_hit_rate(InsertionClass.NORMAL)
    pinned = steady_hit_rate(InsertionClass.HARD_PIN)
    assert lru == 0.0
    assert pinned == pytest.approx(0.375, abs=0.01)
    report(6, f"cyclic 2x working set: LRU {lru:.1%} vs hard pin {pinned:.1%}")


def test_criterion_7_prefetch_formula_exact():
    desc = make_desc(
        elem=4, data_dims=(16 * KB, 1, 1), dtile=(KB, 1, 1), ctile=(1, 8, 1),
        cdmap=(1, 0, 0),
    )
    table = TileTable(desc, CtaGrid((16, 8, 1)))
    trigger = desc.data.base_addr + 4096
    # The trigger's D-tile joins the streams already active on the SM.
    two = {0, table.dtile_at(trigger)}
    (target,) = on_miss(trigger, PrefetchKind.STRIDE, table, 32768, len(two))
    assert target == trigger + 512
    four = {0, 2, 3, table.dtile_at(trigger)}
    (target4,) = on_miss(trigger, PrefetchKind.STRIDE, table, 32768, len(four))
    assert target4 - trigger == (target - trigger) // 2
    report(7, "stride distance is bit-exact (trigger+512) and halves when "
              "active tiles double")


def test_criterion_8_conservation_determinism_bursts(tmp_path):
    # Conservation on every shipped config and both scheduling extremes.
    for name in ("histo.json", "numa_stripe.json", "mixed.json"):
        cfg = load_config(CONFIGS / name)
        for policy in ("rr", "ldesc"):
            m = run_experiment(dataclasses.replace(cfg, policy=policy))
            assert m.hits + m.inflight_hits + m.misses == m.demand_accesses

    # Identical seeds give byte-identical metrics JSON through the CLI.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", str(CONFIGS / "mixed.json"), "--out", str(a)]) == 0
    assert main(["run", str(CONFIGS / "mixed.json"), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    # No 128-byte burst ever splits across zones under any BITRANGE mapping.
    rng = random.Random(99)
    for low_bit in range(LOW_BIT_MIN, LOW_BIT_MAX + 1):
        mapping = bitrange(low_bit, 4)
        for _ in range(200):
            burst = rng.randrange(0, 1 << 28) * 128
            zones = {zone_of_address(burst + o, mapping, 4) for o in (0, 1, 64, 127)}
            assert len(zones) == 1
    report(8, "conservation holds on all configs, reruns are byte-identical, "
              "and bursts never straddle zones")
