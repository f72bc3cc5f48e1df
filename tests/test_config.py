"""Experiment wiring: policy/placement composition and config validation."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from ldesc_sim import config as config_mod
from ldesc_sim.config import (
    ConfigError,
    apply_axis,
    build_policies,
    compose,
    load_config,
    parse_config,
    run_experiment,
)
from ldesc_sim.engine import PrefetchKind
from ldesc_sim.cache import InsertionClass
from ldesc_sim.numa import MappingScheme, NumaPlan, ZoneMapping

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _histo_raw():
    return json.loads((CONFIGS / "histo.json").read_text())


def test_cluster_policy_builds_cluster_schedule():
    cfg = load_config(CONFIGS / "histo.json")
    _, _, schedule, placement = compose(cfg)
    assert placement is None
    # Clustered columns: all eight CTAs of column 0 share one SM.
    col0 = [schedule.assignment[y * 5] for y in range(8)]
    assert len(set(col0)) == 1


def test_rr_and_bcs_policies_schedule_baselines():
    cfg = load_config(CONFIGS / "histo.json")
    _, _, rr_sched, _ = compose(dataclasses.replace(cfg, policy="rr"))
    assert [rr_sched.assignment[i] for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
    _, _, bcs_sched, _ = compose(dataclasses.replace(cfg, policy="bcs"))
    assert [bcs_sched.assignment[i] for i in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]


def test_intra_only_workload_falls_back_to_rr():
    raw = _histo_raw()
    raw["descriptors"][0]["locality_type"] = "INTRA_THREAD"
    del raw["descriptors"][0]["sharing"]
    cfg = parse_config(raw)
    _, policies, schedule, _ = compose(cfg)
    assert not policies.wants_clusters()
    assert [schedule.assignment[i] for i in range(5)] == [0, 1, 2, 3, 0]


def test_first_touch_forces_distributed_schedule():
    cfg = load_config(CONFIGS / "numa_stripe.json")
    _, _, schedule, placement = compose(dataclasses.replace(cfg, placement="first_touch"))
    assert isinstance(placement, ZoneMapping)
    assert placement.scheme is MappingScheme.FIRST_TOUCH
    # Contiguous quarters of the flat CTA order share a zone's SM range.
    assert {schedule.assignment[i] // 4 for i in range(4)} == {0}
    assert {schedule.assignment[i] // 4 for i in range(12, 16)} == {3}


def test_placement_without_scheduling_is_ineffective():
    # Coordinated scheduling keeps every access local; the same plan under
    # a round-robin schedule strands most C-tiles away from their data.
    cfg = load_config(CONFIGS / "numa_stripe.json")
    coordinated = run_experiment(cfg)
    placement_only = run_experiment(dataclasses.replace(cfg, policy="rr"))
    assert coordinated.access_efficiency == 1.0
    assert placement_only.access_efficiency == 0.25
    _, _, _, placement = compose(dataclasses.replace(cfg, policy="rr"))
    assert isinstance(placement, NumaPlan)  # plan still applied


def test_ablation_policy_sets():
    cfg = load_config(CONFIGS / "histo.json")
    descs = cfg.descs
    sched_only = build_policies("ldesc-sched", descs).per_desc[0]
    assert sched_only.schedule_with_clusters
    assert sched_only.insertion is InsertionClass.NORMAL
    assert sched_only.prefetch is PrefetchKind.NONE
    cache_only = build_policies("ldesc-cache", descs).per_desc[0]
    assert not cache_only.schedule_with_clusters
    assert cache_only.insertion is InsertionClass.SOFT_PIN
    pref_only = build_policies("ldesc-pref", descs).per_desc[0]
    assert pref_only.prefetch is PrefetchKind.STRIDE
    assert pref_only.insertion is InsertionClass.NORMAL


def test_apply_axis_zone_divisibility():
    cfg = load_config(CONFIGS / "numa_stripe.json")
    with pytest.raises(ConfigError):
        apply_axis(cfg, "zone_count", 3)


def test_parse_rejects_bad_pattern_kind():
    raw = _histo_raw()
    raw["descriptors"][0]["pattern"] = {"kind": "SOMETIMES"}
    with pytest.raises(ConfigError, match="pattern.kind"):
        parse_config(raw)


def test_parse_rejects_bad_triple():
    raw = _histo_raw()
    raw["grid"]["dims"] = [5, 8]
    with pytest.raises(ConfigError, match="grid.dims"):
        parse_config(raw)


def test_parse_rejects_unknown_system_field():
    raw = _histo_raw()
    raw["system"]["warp_speed"] = 9
    with pytest.raises(ConfigError, match="unknown fields"):
        parse_config(raw)


def test_parse_rejects_duplicate_structures():
    raw = _histo_raw()
    raw["data_structures"].append(dict(raw["data_structures"][0]))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(raw)


def test_parse_rejects_bad_address():
    raw = _histo_raw()
    raw["data_structures"][0]["base_addr"] = "0xzz"
    with pytest.raises(ConfigError, match="hex"):
        parse_config(raw)


def test_system_preset_string_form():
    raw = _histo_raw()
    raw["system"] = "desk"
    cfg = parse_config(raw)
    assert cfg.system.sm_count == 8


def test_invalid_descriptor_reported_as_config_error():
    raw = _histo_raw()
    raw["descriptors"][0]["dtile_dims"] = [999, 1, 1]  # breaks 1:1 tiling
    with pytest.raises(ConfigError, match="descriptors"):
        parse_config(raw)

def test_object_field_lists_match_schema(monkeypatch):
    # Every object the parser reads takes exactly the fields the schema declares.
    schema = json.loads((CONFIGS.parent / "docs" / "config_schema.json").read_text())
    props = schema["properties"]
    system = next(s for s in props["system"]["oneOf"] if s["type"] == "object")
    descriptor = props["descriptors"]["items"]
    expect = {
        "top level": schema,
        "system": system,
        "system.l1": schema["$defs"]["cache"],
        "system.l2": system["properties"]["l2"],
        "system.latencies": system["properties"]["latencies"],
        "grid": props["grid"],
        "data_structures[]": props["data_structures"]["items"],
        "descriptors[]": descriptor,
        "descriptors[].pattern": descriptor["properties"]["pattern"],
    }
    seen: dict[str, set] = {}
    check_object = config_mod._object

    def recording(value, path, fields):
        key = re.sub(r"\[\d+\]", "[]", path)
        seen.setdefault(key, set()).add(tuple(sorted(fields)))
        return check_object(value, path, fields)

    monkeypatch.setattr(config_mod, "_object", recording)
    raw = _histo_raw()
    raw["system"] = {"preset": "desk", "l1": {}, "l2": {}, "latencies": {}}
    parse_config(raw)
    assert set(seen) == set(expect)
    for key, node in expect.items():
        assert seen[key] == {tuple(sorted(node["properties"]))}, key
