#!/usr/bin/env python3
"""Host-time benchmark for `ldesc-sim run` (see perfbench/README.md).

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One operation is one `ldesc-sim run` of the workload's generated config
followed by one `ldesc-sim run --trace-in` replay of its recorded trace,
issued back to back from this single-threaded process. Every operation's
outputs are checked; one that raises or fails a check counts as failed.

With --trace 0 the last line of output carries the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run. `--workload all`
runs every workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from ldesc_sim import config, engine  # noqa: E402  (absent outside a full checkout)
from ldesc_sim.numa import NumaPlan, ZoneMapping  # noqa: E402

from calibration import Calibration  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 7  # fresh interpreters per run, spread over it; setup_s is their median
SETUP_FORKS = 7  # cold set-ups forked in each
MIN_OPS = 3  # operations measured even when one outlasts --seconds
BURST_LOW_BIT = 7  # a BITRANGE field below bit 7 splits a 128 B burst
CHILD_TIMEOUT_S = 170
SPANS_DIR = ROOT / ".perfbench-out"

# name -> (unit, how one run reduces its samples to the reported value).
# Each time is scaled to reference seconds by the calibration chunks timed
# just before and after it (calibration.py; README.md, "Noise").
END_TO_END = {
    "run_s": ("s", "median, scaled"),
    "setup_s": ("s", "median, scaled"),
    "accesses_per_s": ("1/s", "median, scaled"),
    "replay_s": ("s", "median, scaled"),
    "peak_rss_mb": ("MiB", "one process"),
}
SIM_STATS = (
    "demand_accesses", "hits", "inflight_hits", "misses", "l1_hit_rate",
    "inflight_hit_rate", "total_cycles", "prefetches_issued", "prefetches_useful",
    "access_efficiency", "zone_access_distribution", "remote_traffic",
)


@dataclass(frozen=True)
class Outputs:
    """The byte outputs of one `run`: metrics JSON, schedule and plan exports."""

    metrics: str
    schedule: str
    plan: str

    def digest(self) -> str:
        return hashlib.sha256(
            "\0".join((self.metrics, self.schedule, self.plan)).encode()
        ).hexdigest()


def schedule_json(schedule) -> str:
    """The `--schedule-out` export, as the CLI writes it."""
    payload = {
        "sm_count": schedule.sm_count,
        "assignment": {str(cta): sm for cta, sm in sorted(schedule.assignment.items())},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def plan_json(placement) -> str:
    """The `--plan-out` export, as the CLI writes it."""
    if isinstance(placement, NumaPlan):
        payload = placement.to_json()
    elif isinstance(placement, ZoneMapping):
        payload = {"mappings": {"*": placement.to_json()}}
    else:
        payload = {}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass
class OpResult:
    run_s: float = 0.0
    simulate_s: float = 0.0
    replay_s: float = 0.0
    demand: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: Outputs | None = None
    scale: float = 0.0  # reference seconds per host second around this operation


class Bench:
    """One workload's generated config, its reference outputs and its run paths.

    The run paths call the simulator through module attributes
    (`config.load_config`, `engine.simulate`, ...) so that a Tracer
    installed on those attributes sees every call.
    """

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.build(seed), indent=2) + "\n")
        self.trace = work / "trace.jsonl"
        self.reference: Outputs | None = None
        self.events: list | None = None  # the recorded trace, kept by a traced run
        self.tracer: Tracer | None = None

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def live(self, trace_sink=None) -> tuple[Outputs, float, float]:
        """`run CONFIG --out --schedule-out --plan-out`; returns outputs, run_s, simulate_s."""
        self._phase("run")
        t0 = perf_counter()
        cfg = config.load_config(self.config)
        workload, policies, schedule, placement = config.compose(cfg)
        t1 = perf_counter()
        metrics = engine.simulate(
            workload, cfg.system, schedule,
            placement=placement, policies=policies, trace_sink=trace_sink,
        )
        t2 = perf_counter()
        out = Outputs(metrics.json_str(), schedule_json(schedule), plan_json(placement))
        (self.work / "schedule.json").write_text(out.schedule)
        (self.work / "plan.json").write_text(out.plan)
        (self.work / "metrics.json").write_text(out.metrics)
        return out, perf_counter() - t0, t2 - t1

    def replay(self) -> tuple[str, float]:
        """`run CONFIG --trace-in TRACE --out`; returns the metrics JSON and replay_s."""
        self._phase("replay")
        t0 = perf_counter()
        cfg = config.load_config(self.config)
        with open(self.trace) as fp:
            events = engine.load_trace(fp)
        workload, policies, schedule, placement = config.compose(cfg)
        metrics = engine.simulate(
            workload, cfg.system, schedule,
            placement=placement, policies=policies, trace_in=events,
        )
        text = metrics.json_str()
        (self.work / "replay.json").write_text(text)
        return text, perf_counter() - t0

    def warm_up(self) -> list:
        """Untimed first run: records the reference outputs and the demand
        trace, and returns the trace's events.

        Objects alive afterwards are frozen out of the garbage collector, so
        what the benchmark keeps does not slow the collections that the
        measured runs trigger.
        """
        sink: list = []
        self.reference, _, _ = self.live(trace_sink=sink)
        with open(self.trace, "w") as fp:
            engine.dump_trace(sink, fp)
        self.replay()
        gc.collect()
        gc.freeze()
        return sink

    def check(self, out: Outputs, replayed: str) -> list[str]:
        """Output checks; each failed one is a reason the operation failed."""
        failures = []
        m = json.loads(out.metrics)
        demand = m["demand_accesses"]
        if demand != m["hits"] + m["inflight_hits"] + m["misses"]:
            failures.append("conservation: demand_accesses != hits + inflight_hits + misses")
        if demand != self.workload.expected_demand:
            failures.append(
                f"demand_accesses {demand} != expected {self.workload.expected_demand}"
            )
        for name in ("metrics", "schedule", "plan"):
            if getattr(out, name) != getattr(self.reference, name):
                failures.append(f"rerun: {name} output differs from the first run")
        if replayed != out.metrics:
            failures.append("replay: metrics JSON differs from the live run")
        for name, mapping in json.loads(out.plan).get("mappings", {}).items():
            if mapping["scheme"] == "BITRANGE" and mapping["low_bit"] < BURST_LOW_BIT:
                failures.append(f"plan: {name} low_bit {mapping['low_bit']} splits a burst")
        return failures

    def operation(self) -> OpResult:
        """One live run plus one replay, with every output check."""
        if self.tracer is not None:
            self.tracer.begin_run()
        try:
            out, run_s, simulate_s = self.live()
            if self.tracer is not None:
                self._phase("dump")
                with open(self.work / "dump.jsonl", "w") as fp:
                    engine.dump_trace(self.events, fp)
            replayed, replay_s = self.replay()
            failures = self.check(out, replayed)
            demand = json.loads(out.metrics)["demand_accesses"]
        except Exception as exc:  # an operation that raises is a failed operation
            return OpResult(failures=[f"raised {type(exc).__name__}: {exc}"])
        return OpResult(run_s, simulate_s, replay_s, demand, failures, out)

    def operations(self, seconds: float, after=None, min_ops: int = MIN_OPS) -> list[OpResult]:
        """Back-to-back operations for `seconds` (at least `min_ops` of them);
        `after` is called with each one as it completes."""
        ops: list[OpResult] = []
        start = perf_counter()
        while len(ops) < min_ops or perf_counter() - start < seconds:
            ops.append(self.operation())
            if after is not None:
                after(ops[-1])
        return ops


def child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {args[0]} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_run(bench: Bench) -> tuple[float, list[str]]:
    """`ldesc-sim run` in a fresh process: its peak RSS (MiB), and whether its
    outputs match the benchmark's run path byte for byte."""
    out_dir = bench.work / "cli"
    out_dir.mkdir(exist_ok=True)
    files = [out_dir / f for f in ("metrics.json", "schedule.json", "plan.json")]
    res = child("cli", "run", str(bench.config), "--out", str(files[0]),
                "--schedule-out", str(files[1]), "--plan-out", str(files[2]))
    if res["exit"] != 0:
        return res["maxrss_kib"] / 1024, [f"cli: exit code {res['exit']}"]
    got = Outputs(*(f.read_text() for f in files))
    failures = [] if got == bench.reference else ["cli: outputs differ from the run path"]
    return res["maxrss_kib"] / 1024, failures


def git_sha() -> str:
    """HEAD commit, read from .git inside the checkout (git is not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def _stats(bench: Bench) -> dict:
    m = json.loads(bench.reference.metrics)
    return {k: m[k] for k in SIM_STATS}


def measure(bench: Bench, seconds: float) -> tuple[dict, dict, list[OpResult], list[str]]:
    """End-to-end run (no tracing): metric samples, metrics, operations and
    failures that belong to no operation.

    Samples are host seconds as measured. Each metric is the median of the
    samples scaled to reference seconds.
    """
    bench.warm_up()
    rss_mb, cli_failures = cli_run(bench)
    cal = Calibration()

    def calibrate(op: OpResult) -> None:
        op.scale = cal.factor()

    # The fresh-interpreter set-ups are spread evenly over the run, between
    # operations, so that setup_s samples the same stretch of time as they do.
    setup, setup_scaled, ops = [], [], []
    start = perf_counter()
    for rep in range(1, SETUP_REPS + 1):
        res = child("setup", str(bench.config), str(SETUP_FORKS))
        setup += res["setup_s"]
        setup_scaled += res["setup_ref_s"]
        cal.resample()
        until = start + seconds * rep / SETUP_REPS
        ops += bench.operations(until - perf_counter(), after=calibrate,
                                min_ops=-(-MIN_OPS // SETUP_REPS))
    good = [op for op in ops if not op.failures]
    samples = {
        "run_s": [op.run_s for op in good],
        "setup_s": setup,
        "accesses_per_s": [op.demand / op.simulate_s for op in good],
        "replay_s": [op.replay_s for op in good],
        "peak_rss_mb": [rss_mb],
        "scale": [op.scale for op in good],
        "calibration_s": cal.times,
    }
    metrics = {}
    if good:
        values = {
            "run_s": statistics.median(op.run_s * op.scale for op in good),
            "setup_s": statistics.median(setup_scaled),
            "accesses_per_s": statistics.median(
                op.demand / (op.simulate_s * op.scale) for op in good),
            "replay_s": statistics.median(op.replay_s * op.scale for op in good),
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}
    # the fresh-process CLI run is an operation too
    return samples, metrics, [OpResult(failures=cli_failures), *ops], []


def layer_metrics(agg: dict, counts: dict, out: Outputs) -> dict[str, float]:
    """Per-layer figures of one traced operation (its live run unless noted)."""

    def span(name, phase="run", kind="self"):
        return agg.get(f"{phase}:{name}", {}).get(kind, 0.0)

    def calls(name, phase="run"):
        return agg.get(f"{phase}:{name}", {}).get("calls", 0)

    def count(key):
        return counts.get(f"run:{key}", 0)

    m = json.loads(out.metrics)
    l2_calls = calls("cache.l2.access")
    issued = m["prefetches_issued"]
    return {
        "config.load_s": span("config.load"),
        "config.compose_s": span("config.compose"),
        "descriptor.validate_s": span("descriptor.validate"),
        "numa.place_s": span("numa.place"),
        "numa.place_calls": calls("numa.place"),
        "numa.zone_resolve_s": span("numa.zone_resolve"),
        "numa.zone_resolve_calls": calls("numa.zone_resolve"),
        "sched.schedule_s": span("sched.schedule"),
        "engine.simulate_s": span("engine.simulate", kind="total"),
        "engine.loop_self_s": span("engine.simulate"),
        "engine.generate_s": span("engine.generate"),
        "engine.generate_calls": calls("engine.generate"),
        "engine.trace_dump_s": span("engine.trace_dump", "dump"),
        "engine.trace_load_s": span("engine.trace_load", "replay"),
        "engine.demand_accesses": m["demand_accesses"],
        "engine.total_cycles": m["total_cycles"],
        "cache.l1.access_s": span("cache.l1.access"),
        "cache.l1.access_calls": calls("cache.l1.access"),
        "cache.l1.hits": count("cache.l1.access.HIT"),
        "cache.l1.inflight_hits": count("cache.l1.access.INFLIGHT_HIT"),
        "cache.l1.misses": count("cache.l1.access.MISS"),
        "cache.l1.mshr_full": count("cache.l1.access.mshr_full"),
        "cache.l1.fill_s": span("cache.l1.fill"),
        "cache.l1.fills": calls("cache.l1.fill"),
        "cache.l2.access_s": span("cache.l2.access"),
        "cache.l2.access_calls": l2_calls,
        "cache.l2.hit_ratio": count("cache.l2.access.HIT") / l2_calls if l2_calls else 0.0,
        "cache.l2.fill_s": span("cache.l2.fill"),
        "prefetch.on_miss_s": span("prefetch.on_miss"),
        "prefetch.on_miss_calls": calls("prefetch.on_miss"),
        "prefetch.requests": count("prefetch.requests"),
        "prefetch.issued": issued,
        "prefetch.useful_ratio": m["prefetches_useful"] / issued if issued else 0.0,
    }


SIMULATE_CHILDREN = (
    "engine.generate_s", "numa.zone_resolve_s", "cache.l1.access_s", "cache.l1.fill_s",
    "cache.l2.access_s", "cache.l2.fill_s", "prefetch.on_miss_s",
)


def traced(bench: Bench, seconds: float) -> tuple[dict, dict, list[OpResult], list[str]]:
    """Untraced operations for a third of the time, traced ones for the rest.

    Spans of each traced operation are aggregated when it ends; the last
    operation's spans are written to SPANS_DIR.
    """
    bench.events = bench.warm_up()
    plain = bench.operations(seconds / 3)
    tracer = Tracer()
    layers: list[dict[str, float]] = []

    def aggregate(op: OpResult) -> None:
        if not op.failures:
            layers.append(layer_metrics(tracer.aggregate(), tracer.counts, op.outputs))

    bench.tracer = tracer
    tracer.install()
    try:
        ops = bench.operations(2 * seconds / 3, after=aggregate)
    finally:
        tracer.uninstall()
        bench.tracer = None
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write(SPANS_DIR / f"spans-{bench.workload.name}-seed{bench.seed}.jsonl.gz")

    failures = []
    samples = {k: [lm[k] for lm in layers] for k in (layers[0] if layers else {})}
    for lm in layers:
        residual = lm["engine.simulate_s"] - lm["engine.loop_self_s"] - sum(
            lm[k] for k in SIMULATE_CHILDREN)
        if abs(residual) > 1e-6 * max(1.0, lm["engine.simulate_s"]):
            failures.append(f"trace: simulate span != children + loop self by {residual:.3g} s")
    good_plain = [op.run_s for op in plain if not op.failures]
    good_traced = [op.run_s for op in ops if not op.failures]
    if good_plain and good_traced:
        samples["trace.overhead_s"] = [min(good_traced) - min(good_plain)]
    metrics = {k: {"value": statistics.median(v), "unit": layer_unit(k)}
               for k, v in samples.items() if v}
    return samples, metrics, plain + ops, failures


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_cycles"):
        return "cycles"
    return "count"


def report(bench: Bench, args, samples: dict, metrics: dict, ops: list[OpResult],
           failures: list[str], load: tuple) -> dict:
    """Print the human-readable report and the `record` line; return the result."""
    attempted = len(ops)
    failed = sum(1 for op in ops if op.failures)
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"perfbench {bench.workload.name} seed={bench.seed} seconds={args.seconds} {mode}")
    for name, m in metrics.items():
        values = samples[name]
        how = END_TO_END[name][1] if not args.trace else "median"
        med, q1, q3 = spread(values)
        print(f"  {name:26s} {m['value']:14.6g} {m['unit']:6s} {how:22s} of {len(values):3d}"
              f"  raw [p25 {q1:.6g}, median {med:.6g}, p75 {q3:.6g}]")
    print(f"  {'fail_rate':26s} {failed}/{attempted} operations")
    digest = bench.reference.digest()
    print(f"  {'sim_digest':26s} {digest}")
    reasons = sorted({f for op in ops for f in op.failures} | set(failures))
    for reason in reasons:
        print(f"  FAILED: {reason}")
    record = {
        "workload": bench.workload.name,
        "seed": bench.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load[0],
        "loadavg_after": load[1],
        "sim_digest": digest,
        "sim_stats": _stats(bench),
        "metrics": {k: m["value"] for k, m in metrics.items()},
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
    }
    print("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    # One CPU for the whole run, forked set-ups included: the calibration
    # loop then runs where the measured code runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        bench = Bench(workload, args.seed, Path(work))
        before = os.getloadavg()
        samples, metrics, ops, failures = (traced if args.trace else measure)(
            bench, args.seconds)
        load = (before, os.getloadavg())
        result = report(bench, args, samples, metrics, ops, failures, load)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measured time per run (default: 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
