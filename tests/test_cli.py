"""CLI contract: exit codes, output shapes, trace round trip, byte stability."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ldesc_sim.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HISTO = str(CONFIGS / "histo.json")
NUMA = str(CONFIGS / "numa_stripe.json")
MIXED = str(CONFIGS / "mixed.json")

METRIC_FIELDS = {
    "access_efficiency",
    "avg_working_set",
    "demand_accesses",
    "hits",
    "inflight_hit_rate",
    "inflight_hits",
    "l1_hit_rate",
    "misses",
    "prefetch_accuracy",
    "prefetches_issued",
    "prefetches_useful",
    "remote_traffic",
    "total_cycles",
    "working_set",
    "zone_access_distribution",
}


def test_run_writes_metrics(tmp_path):
    out = tmp_path / "m.json"
    assert main(["run", HISTO, "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())
    assert set(metrics) == METRIC_FIELDS
    assert metrics["hits"] + metrics["inflight_hits"] + metrics["misses"] == metrics[
        "demand_accesses"
    ]


def test_run_stdout(capsys):
    assert main(["run", HISTO]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["demand_accesses"] == 1280


def test_run_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{ not json")
    assert main(["run", str(cfg)]) == 2
    assert "bad.json:1" in capsys.readouterr().err


def test_run_unknown_structure_field_path(tmp_path, capsys):
    raw = json.loads(Path(HISTO).read_text())
    raw["descriptors"][0]["data"] = "nope"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg)]) == 2
    assert "descriptors[0].data" in capsys.readouterr().err


def test_run_missing_file():
    assert main(["run", "/nonexistent/config.json"]) == 2


def test_preset_override(tmp_path):
    out = tmp_path / "m.json"
    # paper-single has 15 SMs; histo.json's explicit sm_count=4 still wins
    # over the preset's default, so the run stays valid.
    assert main(["run", HISTO, "--preset", "paper-single", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["demand_accesses"] == 1280


def test_run_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", HISTO, "--out", str(a)]) == 0
    assert main(["run", HISTO, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_outputs_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["compare", HISTO, "--policies", "rr,ldesc", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    for out in (a, b):
        assert main(["sweep", NUMA, "--axis", "seed", "--values", "1,2", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_schedule_and_plan_export(tmp_path):
    sched_f = tmp_path / "sched.json"
    plan_f = tmp_path / "plan.json"
    code = main(
        ["run", NUMA, "--out", str(tmp_path / "m.json"),
         "--schedule-out", str(sched_f), "--plan-out", str(plan_f)]
    )
    assert code == 0
    sched = json.loads(sched_f.read_text())
    assert sched["sm_count"] == 16
    assert set(sched["assignment"]) == {str(i) for i in range(16)}
    plan = json.loads(plan_f.read_text())
    assert set(plan) == {"partition", "mappings", "utility"}
    assert plan["mappings"]["field"] == {"scheme": "BITRANGE", "low_bit": 14}
    assert sorted(set(plan["partition"])) == [0, 1, 2, 3]


def test_trace_round_trip(tmp_path):
    trace = tmp_path / "t.jsonl"
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    assert main(["run", HISTO, "--trace-out", str(trace), "--out", str(m1)]) == 0
    assert trace.stat().st_size > 0
    first = json.loads(trace.read_text().splitlines()[0])
    assert set(first) == {"sm", "cta", "warp", "addr", "cycle"}
    assert first["addr"].startswith("0x")
    assert main(["run", HISTO, "--trace-in", str(trace), "--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


@pytest.mark.parametrize("placement", ["ldesc", "xor", "first_touch"])
def test_trace_round_trip_all_placements(tmp_path, placement):
    raw = json.loads(Path(NUMA).read_text())
    raw["placement"] = placement
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    trace = tmp_path / "t.jsonl"
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(["run", str(cfg), "--trace-out", str(trace), "--out", str(m1)]) == 0
    assert main(["run", str(cfg), "--trace-in", str(trace), "--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


@pytest.mark.parametrize(
    "line,message",
    [
        ('{"sm": 0, "cta": 0', "Expecting"),
        ('[0, 0, 0, "0x0", 0]', "expected a JSON object"),
        ('{"sm": 0, "cta": 0, "warp": 0, "cycle": 9}', "missing key 'addr'"),
        ('{"sm": 0, "cta": 0, "warp": 0, "addr": "0xzz", "cycle": 9}', "not a hex string"),
        ('{"sm": 0, "cta": 0, "warp": 0, "addr": 128, "cycle": 9}', "not a hex string"),
        ('{"sm": "0", "cta": 0, "warp": 0, "addr": "0x0", "cycle": 9}', "sm '0'"),
        ('{"sm": 0, "cta": 1.5, "warp": 0, "addr": "0x0", "cycle": 9}', "cta 1.5"),
        ('{"sm": 0, "cta": 0, "warp": true, "addr": "0x0", "cycle": 9}', "warp True"),
        ('{"sm": 0, "cta": 0, "warp": 0, "addr": "0x0", "cycle": null}', "cycle None"),
        ('{"sm": -1, "cta": 0, "warp": 0, "addr": "0x0", "cycle": 9}', "sm -1 is negative"),
        ('{"sm": 0, "cta": -2, "warp": 0, "addr": "0x0", "cycle": 9}', "cta -2 is negative"),
        ('{"sm": 0, "cta": 0, "warp": -3, "addr": "0x0", "cycle": 9}', "warp -3 is negative"),
        ('{"sm": 0, "cta": 0, "warp": 0, "addr": "0x0", "cycle": -5}', "cycle -5 is negative"),
    ],
    ids=["bad-json", "not-object", "missing-key", "non-hex-addr", "int-addr", "str-sm",
         "float-cta", "bool-warp", "null-cycle", "negative-sm", "negative-cta",
         "negative-warp", "negative-cycle"],
)
def test_run_malformed_trace_line(tmp_path, capsys, line, message):
    trace = tmp_path / "t.jsonl"
    assert main(["run", HISTO, "--trace-out", str(trace), "--out", str(tmp_path / "m")]) == 0
    first = trace.read_text().splitlines()[0]
    trace.write_text(f"{first}\n\n{line}\n")
    assert main(["run", HISTO, "--trace-in", str(trace)]) == 2
    err = capsys.readouterr().err
    assert f"{trace}:3: " in err
    assert message in err


@pytest.mark.parametrize("field,value", [("sm", 4), ("cta", 40), ("warp", 8), ("warp", 99)])
def test_run_replay_rejects_event_outside_system_or_grid(tmp_path, capsys, field, value):
    # configs/histo.json: 4 SMs, 40 CTAs of 8 warps
    trace = tmp_path / "t.jsonl"
    assert main(["run", HISTO, "--trace-out", str(trace), "--out", str(tmp_path / "m")]) == 0
    lines = trace.read_text().splitlines()
    event = json.loads(lines[-1])
    event[field] = value
    lines[-1] = json.dumps(event)
    trace.write_text("\n".join(lines) + "\n")
    assert main(["run", HISTO, "--trace-in", str(trace)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("simulation error: ")
    assert f"{field}={value}" in err


@pytest.mark.parametrize("moved", ["all-but-first", "last"])
def test_run_replay_rejects_a_cta_on_two_sms(tmp_path, capsys, moved):
    # Every event of CTA 0 after its first, or only its last, moves to
    # another SM: a trace no live run can write.
    trace = tmp_path / "t.jsonl"
    assert main(["run", HISTO, "--trace-out", str(trace), "--out", str(tmp_path / "m")]) == 0
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    cta0 = [ev for ev in events if ev["cta"] == 0]
    home, other = cta0[0]["sm"], (cta0[0]["sm"] + 1) % 4
    for ev in cta0[1:] if moved == "all-but-first" else cta0[-1:]:
        ev["sm"] = other
    trace.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    assert main(["run", HISTO, "--trace-in", str(trace)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("simulation error: ") and "Traceback" not in err
    assert f"CTA 0 on SM {home} and on SM {other}" in err


def _edited_inputs(tmp_path, which, edit):
    """`run` arguments for histo.json and its recorded trace, with line 3 of
    the config or of the trace (``which``) replaced by ``edit(line)``."""
    cfg, trace = tmp_path / "cfg.json", tmp_path / "t.jsonl"
    cfg.write_bytes(Path(HISTO).read_bytes())
    assert main(["run", str(cfg), "--trace-out", str(trace), "--out", str(tmp_path / "m")]) == 0
    target = cfg if which == "config" else trace
    lines = target.read_bytes().split(b"\n")
    lines[2] = edit(lines[2])
    target.write_bytes(b"\n".join(lines))
    return ["run", str(cfg), "--trace-in", str(trace)], target


@pytest.mark.parametrize("which", ["config", "trace"])
def test_run_rejects_integer_too_long_for_int(tmp_path, capsys, which):
    # int() refuses decimal strings over 4,300 digits by default.
    big = b"1" + b"0" * 5000
    argv, target = _edited_inputs(
        tmp_path, which, lambda line: re.sub(rb'(": )[0-9]+', rb"\g<1>" + big, line, count=1))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{target}:3: an integer has more than" in err


@pytest.mark.parametrize("which", ["config", "trace"])
def test_run_rejects_deeply_nested_json(tmp_path, capsys, which):
    # json.loads raises RecursionError, not ValueError, on deep nesting.
    # Line 3 of the config is inside its top-level object, so it needs a key.
    key = b'"a": ' if which == "config" else b""
    argv, target = _edited_inputs(tmp_path, which, lambda line: key + b"[" * 100_000)
    assert main(argv) == 2
    err = capsys.readouterr().err
    where = f"{target}:3" if which == "trace" else f"{target}"
    assert f"{where}: a JSON value is nested too deeply" in err


@pytest.mark.parametrize("which", ["config", "trace"])
def test_run_rejects_undecodable_bytes(tmp_path, capsys, which):
    argv, target = _edited_inputs(tmp_path, which, lambda line: b"\xff" + line)
    assert main(argv) == 2
    assert f"{target}:3: byte 0xff is not valid utf-8" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["config", "trace"])
def test_run_rejects_directory_path(tmp_path, capsys, which):
    argv, target = _edited_inputs(tmp_path, which, lambda line: line)
    target.unlink()
    target.mkdir()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Is a directory" in err and str(target) in err


def _set_field(raw, keys, value):
    for k in keys[:-1]:
        raw = raw[k]
    raw[keys[-1]] = value


BAD_INTEGER_FIELDS = [
    (["data_structures", 0, "elem_size"], "4", "data_structures[0].elem_size"),
    (["grid", "warps_per_cta"], 0, "grid.warps_per_cta"),
    (["grid", "dims"], [5, 8, 1.0], "grid.dims[2]"),
    (["system", "sm_count"], 0, "system.sm_count"),
    (["system", "l1"], {"ways": "4"}, "system.l1.ways"),
    (["system", "l2"], {"ways": 0}, "system.l2.ways"),
    (["system", "latencies"], {"l2_hit": 0}, "system.latencies.l2_hit"),
    (["descriptors", 0, "pattern", "stride_bytes"], 0, "pattern.stride_bytes"),
    (["descriptors", 0, "priority"], -1, "descriptors[0].priority"),
    (["seed"], "1", "seed"),
]
BAD_FIELDS = [pytest.param(k, v, f, id=f) for k, v, f in BAD_INTEGER_FIELDS] + [
    pytest.param(["system", "remote_link_capacity"], "fast", "system.remote_link_capacity",
                 id="remote_link_capacity-string"),
    pytest.param(["system", "remote_link_capacity"], True, "system.remote_link_capacity",
                 id="remote_link_capacity-bool"),
    pytest.param(["system", "remote_link_capacity"], 0, "system.remote_link_capacity",
                 id="remote_link_capacity-zero"),
    pytest.param(["system", "l2"], {"mshr_entries": 4}, "system.l2", id="unknown-l2-mshr"),
    pytest.param(["system"], {"sm_count": 6, "zone_count": 3}, "system.zone_count",
                 id="zone_count-3"),
    pytest.param(["system"], {"sm_count": 12, "zone_count": 6}, "system.zone_count",
                 id="zone_count-6"),
    pytest.param(["system", "preset"], [], "system.preset", id="preset-list"),
    pytest.param(["system"], [1], "system", id="system-list"),
    pytest.param(["grid"], 5, "grid", id="grid-int"),
    pytest.param(["data_structures"], [5], "data_structures[0]", id="structure-int"),
    pytest.param(["data_structures"], ["name"], "data_structures[0]", id="structure-string"),
    pytest.param(["data_structures"], {}, "data_structures", id="structures-object"),
    pytest.param(["descriptors"], 5, "descriptors", id="descriptors-int"),
    pytest.param(["bogus"], 1, "top level", id="unknown-top-level"),
    pytest.param(["grid", "bogus"], 1, "grid", id="unknown-grid"),
    pytest.param(["data_structures", 0, "bogus"], 1, "data_structures[0]",
                 id="unknown-structure"),
    pytest.param(["descriptors", 0, "bogus"], 1, "descriptors[0]", id="unknown-descriptor"),
    pytest.param(["descriptors", 0, "pattern", "bogus"], 1, "descriptors[0].pattern",
                 id="unknown-pattern"),
]


@pytest.mark.parametrize("keys,value,field", BAD_FIELDS)
def test_run_rejects_bad_integer_field(tmp_path, capsys, keys, value, field):
    raw = json.loads(Path(HISTO).read_text())
    _set_field(raw, keys, value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg)]) == 2
    assert f"{field}: " in capsys.readouterr().err


def test_run_rejects_threads_per_warp(tmp_path, capsys):
    # The grid has no thread-count field; setting one is an error, not a no-op.
    raw = json.loads(Path(HISTO).read_text())
    raw["grid"]["threads_per_warp"] = 32
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg)]) == 2
    assert "grid: unknown fields ['threads_per_warp']" in capsys.readouterr().err


def test_compare_three_policies(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", HISTO, "--policies", "rr,bcs,ldesc", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "policy,l1_hit_rate,inflight_hit_rate,avg_working_set,"
        "access_efficiency,total_cycles,prefetch_accuracy"
    )
    assert len(lines) == 4
    assert [l.split(",")[0] for l in lines[1:]] == ["rr", "bcs", "ldesc"]


def test_compare_duplicates_allowed(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", HISTO, "--policies", "rr,rr", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1] == lines[2]


def test_compare_needs_two_policies(capsys):
    assert main(["compare", HISTO, "--policies", "ldesc"]) == 2


def test_compare_unknown_policy(capsys):
    assert main(["compare", HISTO, "--policies", "rr,warp9"]) == 2


def test_compare_ablation_names(tmp_path):
    out = tmp_path / "abl.csv"
    code = main(
        ["compare", HISTO, "--policies", "rr,ldesc-sched,ldesc-cache,ldesc-pref,ldesc",
         "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 6


def test_sweep_zone_count(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(
        ["sweep", NUMA, "--axis", "zone_count", "--values", "1,2,4", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("zone_count,")
    assert len(lines) == 4


def test_sweep_seed_totals_constant(tmp_path):
    out = tmp_path / "seeds.csv"
    assert main(
        ["sweep", MIXED, "--axis", "seed", "--values", "1,2,3,4,5", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    demand_col = header.index("demand_accesses")
    hit_col = header.index("l1_hit_rate")
    totals = {row.split(",")[demand_col] for row in lines[1:]}
    rates = {row.split(",")[hit_col] for row in lines[1:]}
    assert len(totals) == 1
    assert len(rates) > 1  # irregular walks vary with the seed


@pytest.mark.parametrize(
    "axis,values",
    [
        ("sm_count", "2,4,8"),
        ("l1_capacity", "16384,32768"),
        ("pin_reset_period", "1000,100000"),
    ],
)
def test_sweep_other_axes(tmp_path, axis, values):
    out = tmp_path / "s.csv"
    assert main(["sweep", HISTO, "--axis", axis, "--values", values, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == len(values.split(",")) + 1


def test_sweep_unknown_axis():
    assert main(["sweep", HISTO, "--axis", "bogus", "--values", "1"]) == 2


@pytest.mark.parametrize(
    "axis,value", [("pin_reset_period", "-1"), ("l1_capacity", "0"), ("l1_capacity", "1000")]
)
def test_sweep_rejects_bad_cache_value(capsys, axis, value):
    assert main(["sweep", HISTO, "--axis", axis, "--values", value]) == 2
    assert f"axis {axis}={value}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "axis,value", [("sm_count", "0"), ("sm_count", "-4"), ("zone_count", "0"),
                   ("zone_count", "-1")]
)
def test_sweep_rejects_count_below_one(capsys, axis, value):
    assert main(["sweep", HISTO, "--axis", axis, "--values", value]) == 2
    assert f"axis {axis}={value}: must be at least 1" in capsys.readouterr().err


def test_sweep_rejects_zone_count_not_power_of_two(capsys):
    # paper-single has 15 SMs, so 3 zones divide them evenly
    matrix = str(CONFIGS / "matrix.json")
    argv = ["sweep", matrix, "--preset", "paper-single", "--axis", "zone_count", "--values", "3"]
    assert main(argv) == 2
    assert "axis zone_count=3: system.zone_count: " in capsys.readouterr().err


def test_sweep_empty_values():
    assert main(["sweep", HISTO, "--axis", "seed", "--values", ","]) == 2


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "ldesc_sim.cli", "run", HISTO],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["demand_accesses"] == 1280
