#!/usr/bin/env python3
"""Compare two sets of benchmark results, or show the spread of one set.

    python3 perfbench/compare.py PARENT CHANGE
    python3 perfbench/compare.py RESULTS

PARENT, CHANGE and RESULTS are files, or directories of files, holding the
captured standard output of `perfbench/run.py --trace 0` runs; the
`record` line of every run is read. Runs are paired by seed, in file order
within a seed, so run the same seeds on both sides and alternate which side
runs first.

For each workload and end-to-end metric the comparison prints both sides'
median and quartiles and a verdict, using the bounds in BENCHMARK.json:

  gain         the change wins at least 9 of 10 pairs and the medians differ
               by more than the parent's interquartile range
  regression   the change's median is worse than the parent's by more than
               the bound
  unresolved   either side's spread (IQR / median) exceeds the bound, unless
               every change run reads better than every parent run ("better")
  same         none of the above

It also shows whether the simulated outputs (`sim_digest`) match seed by
seed: a change that only speeds up the simulator must keep them identical.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    files = sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [path]
    records = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.startswith("record "):
                rec = json.loads(line[len("record "):])
                if rec["trace"] == 0:
                    records.append(rec)
    if not records:
        sys.exit(f"{path}: no end-to-end `record` lines found")
    return records


def by_workload(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for rec in sorted(records, key=lambda r: r["seed"]):  # stable: file order within a seed
        out.setdefault(rec["workload"], []).append(rec)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def rel_spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, str]:
    sign = -1.0 if better == "lower" else 1.0  # sign * (c - p) > 0 means c is better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = -sign * (cm - pm) / abs(pm)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        result = "gain"
    elif max(rel_spread(parent), rel_spread(change)) > bound:
        all_better = all(sign * (c - p) > 0 for p in parent for c in change)
        result = "better" if all_better else "unresolved"
    elif worse_by > bound:
        result = "regression"
    else:
        result = "same"
    return result, f"{wins}/{len(pairs)}"


def digest_match(parent: list[dict], change: list[dict]) -> str:
    pd = {r["seed"]: r["sim_digest"] for r in parent}
    cd = {r["seed"]: r["sim_digest"] for r in change}
    seeds = sorted(set(pd) & set(cd))
    if not seeds:
        return "no common seed"
    differ = [s for s in seeds if pd[s] != cd[s]]
    return "match" if not differ else f"DIFFER on seeds {differ}"


def digest_consistency(records: list[dict]) -> str:
    seen: dict[int, set[str]] = {}
    for r in records:
        seen.setdefault(r["seed"], set()).add(r["sim_digest"])
    if any(len(d) > 1 for d in seen.values()):
        return "DIFFER between runs of one seed"
    distinct = len(set().union(*seen.values()))
    return f"{distinct} distinct over {len(seen)} seeds"


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [by_workload(load(Path(a))) for a in argv]
    if len(sets) == 1:
        print(f"{'workload':14s} {'metric':16s} {'n':>3s} {'median [p25, p75]':>36s} "
              f"{'IQR/median':>10s} {'bound':>6s}")
        for wl, recs in sets[0].items():
            for name, m in metrics.items():
                values = [r["metrics"][name] for r in recs if name in r["metrics"]]
                if not values:
                    continue
                print(f"{wl:14s} {name:16s} {len(values):3d} {fmt(values):>36s} "
                      f"{rel_spread(values):10.2%} {m['bound']:6.2f}")
            failed = sum(r["failed"] for r in recs)
            attempted = sum(r["attempted"] for r in recs)
            print(f"{wl:14s} fail_rate {failed}/{attempted}; "
                  f"sim_digest {digest_consistency(recs)}")
        return 0
    parent, change = sets
    print(f"{'workload':14s} {'metric':16s} {'parent median [p25, p75]':>36s} "
          f"{'change median [p25, p75]':>36s} {'delta':>8s} {'wins':>6s} verdict")
    for wl in parent:
        if wl not in change:
            print(f"{wl:14s} (no change runs)")
            continue
        for name, m in metrics.items():
            pv = [r["metrics"][name] for r in parent[wl] if name in r["metrics"]]
            cv = [r["metrics"][name] for r in change[wl] if name in r["metrics"]]
            if not pv or not cv:
                continue
            result, wins = verdict(pv, cv, m["better"], m["bound"])
            delta = (statistics.median(cv) - statistics.median(pv)) / abs(statistics.median(pv))
            print(f"{wl:14s} {name:16s} {fmt(pv):>36s} {fmt(cv):>36s} {delta:+8.2%} "
                  f"{wins:>6s} {result}")
        failed = [sum(r["failed"] for r in s[wl]) for s in (parent, change)]
        print(f"{wl:14s} sim_digest {digest_match(parent[wl], change[wl])}; "
              f"failed operations parent {failed[0]}, change {failed[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
