"""Command line front end: single runs, policy comparisons, parameter sweeps.

Exit codes: 0 success, 2 configuration/usage error, 3 simulation error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

from .config import (
    POLICY_NAMES,
    SWEEP_AXES,
    ConfigError,
    apply_axis,
    compose,
    load_config,
    run_experiment,
)
from .engine import PRESETS, SimMetrics, dump_trace, load_trace, simulate
from .errors import LdescError
from .numa import NumaPlan, ZoneMapping

EXIT_CONFIG = 2
EXIT_SIM = 3

COMPARE_COLUMNS = (
    "policy",
    "l1_hit_rate",
    "inflight_hit_rate",
    "avg_working_set",
    "access_efficiency",
    "total_cycles",
    "prefetch_accuracy",
)


def _metric_row(m: SimMetrics) -> list:
    return [
        m.l1_hit_rate,
        m.inflight_hit_rate,
        m.avg_working_set,
        m.access_efficiency,
        m.total_cycles,
        m.prefetch_accuracy,
    ]


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_run(args) -> int:
    cfg = load_config(args.config, args.preset)
    trace_in = None
    if args.trace_in:
        with open(args.trace_in) as fp:
            trace_in = load_trace(fp)
    sink = [] if args.trace_out else None
    workload, policies, schedule, placement = compose(cfg)
    metrics = simulate(
        workload, cfg.system, schedule,
        placement=placement, policies=policies,
        trace_sink=sink, trace_in=trace_in,
    )
    if args.trace_out:
        with open(args.trace_out, "w") as fp:
            dump_trace(sink, fp)
    if args.schedule_out:
        payload = {
            "sm_count": schedule.sm_count,
            "assignment": {str(cta): sm for cta, sm in sorted(schedule.assignment.items())},
        }
        Path(args.schedule_out).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if args.plan_out:
        if isinstance(placement, NumaPlan):
            payload = placement.to_json()
        elif isinstance(placement, ZoneMapping):
            payload = {"mappings": {"*": placement.to_json()}}
        else:
            payload = {}
        Path(args.plan_out).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    _write_output(metrics.json_str(), args.out)
    return 0


def _cmd_compare(args) -> int:
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if len(policies) < 2:
        raise ConfigError("compare needs at least two --policies")
    for p in policies:
        if p not in POLICY_NAMES:
            raise ConfigError(f"--policies: {p!r} is not one of {list(POLICY_NAMES)}")
    cfg = load_config(args.config, args.preset)
    rows = []
    for p in policies:
        metrics = run_experiment(dataclasses.replace(cfg, policy=p))
        rows.append([p] + _metric_row(metrics))
    _write_output(_csv_text(list(COMPARE_COLUMNS), rows), args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"--axis: {args.axis!r} is not one of {list(SWEEP_AXES)}")
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        raise ConfigError("--values: empty value list")
    try:
        values = [int(v) for v in raw_values]
    except ValueError:
        raise ConfigError(f"--values: all values for {args.axis} must be integers") from None
    cfg = load_config(args.config, args.preset)
    header = [args.axis] + list(COMPARE_COLUMNS[1:]) + ["demand_accesses"]
    rows = []
    for v in values:
        metrics = run_experiment(apply_axis(cfg, args.axis, v))
        rows.append([v] + _metric_row(metrics) + [metrics.demand_accesses])
    _write_output(_csv_text(header, rows), args.out)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldesc-sim",
        description="Locality-descriptor-driven GPU locality simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="experiment config (JSON)")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument(
            "--preset",
            choices=sorted(PRESETS),
            help="override the config's system preset",
        )

    run_p = sub.add_parser("run", help="run one simulation, emit metrics JSON")
    common(run_p)
    run_p.add_argument("--trace-out", help="record the demand trace (JSONL)")
    run_p.add_argument("--trace-in", help="replay a recorded demand trace")
    run_p.add_argument("--schedule-out", help="export the CTA->SM schedule (JSON)")
    run_p.add_argument("--plan-out", help="export the NUMA placement plan (JSON)")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run several policies, emit a CSV table")
    common(cmp_p)
    cmp_p.add_argument(
        "--policies", required=True, help="comma-separated policy names (at least two)"
    )
    cmp_p.set_defaults(func=_cmd_compare)

    sweep_p = sub.add_parser("sweep", help="sweep one parameter, emit a CSV table")
    common(sweep_p)
    sweep_p.add_argument("--axis", required=True, help=f"one of {', '.join(SWEEP_AXES)}")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a missing or unreadable input, or a directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LdescError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIM


if __name__ == "__main__":
    sys.exit(main())
