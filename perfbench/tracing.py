"""Spans around the simulator's public functions, installed from outside.

The tracer replaces each function where its caller looks the name up (a
module attribute or a class attribute) with a wrapper that records one
span per call: name, start, end, parent span and run id. The program's own
files are not changed. Spans are kept in memory in flat arrays and written
when the benchmark ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans; single-threaded calls nest, so children never overlap.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

from ldesc_sim import cache, config, engine, prefetch
from ldesc_sim.cache import AccessOutcome
from ldesc_sim.errors import MshrFull

SCHEDULE_BUILDERS = (
    "form_clusters",
    "assign_clusters",
    "assign_clusters_by_zone",
    "baseline_bcs",
    "baseline_round_robin",
    "distributed_schedule",
)

# (owner, attribute, span name); a name of None means "decided per call".
TARGETS = [
    (config, "load_config", "config.load"),
    (config, "validate_descriptor_set", "descriptor.validate"),
    (config, "compose", "config.compose"),
    (config, "place_and_partition", "numa.place"),
    *[(config, fn, "sched.schedule") for fn in SCHEDULE_BUILDERS],
    (engine, "simulate", "engine.simulate"),
    (engine, "generate_accesses", "engine.generate"),
    (engine, "zone_of_address", "numa.zone_resolve"),
    (engine, "dump_trace", "engine.trace_dump"),
    (engine, "load_trace", "engine.trace_load"),
    (prefetch, "on_miss", "prefetch.on_miss"),
    (cache.CacheModel, "access", None),
    (cache.CacheModel, "fill", None),
]


class Tracer:
    """Records spans and counts for calls into the simulator's layers.

    ``phase`` names the part of an operation running now (``run``,
    ``dump`` or ``replay``); spans and counts are grouped by it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.run_id = -1
        self.phase = "run"
        self.l1_config = None
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0
        self._stack = [-1]
        self.begin_run()

    def begin_run(self) -> None:
        """Start a new run id, dropping the previous run's spans and counts."""
        self.run_id += 1
        self.ids = array("q")
        self.parents = array("q")
        self.kinds = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()

    def _kind(self, name: str) -> int:
        key = f"{self.phase}:{name}"
        ix = self._name_ix.get(key)
        if ix is None:
            ix = self._name_ix[key] = len(self.names)
            self.names.append(key)
        return ix

    def _record(self, sid: int, parent: int, name: str, t0: float, t1: float) -> None:
        self.ids.append(sid)
        self.parents.append(parent)
        self.kinds.append(self._kind(name))
        self.starts.append(t0)
        self.ends.append(t1)

    def _wrap(self, fn, name):
        tracer = self
        stack = self._stack

        def level(cache_model) -> str:
            return "l1" if cache_model.config is tracer.l1_config else "l2"

        def traced(*args, **kwargs):
            span = name
            if span is None:  # CacheModel.access / fill
                span = f"cache.{level(args[0])}.{fn.__name__}"
            elif span == "engine.simulate":
                tracer.l1_config = args[1].l1
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except MshrFull:
                tracer.counts[f"{tracer.phase}:{span}.mshr_full"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._record(sid, parent, span, t0, t1)
            if isinstance(result, AccessOutcome):
                tracer.counts[f"{tracer.phase}:{span}.{result.value}"] += 1
            elif span == "prefetch.on_miss":
                tracer.counts[f"{tracer.phase}:prefetch.requests"] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            fn = getattr(owner, attr, None)
            if fn is None:
                print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found; "
                      "its layer reads 0", file=sys.stderr)
                continue
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per ``phase:name``: calls, total duration and self time."""
        child: dict[int, float] = {}
        for parent, t0, t1 in zip(self.parents, self.starts, self.ends):
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out: dict[str, dict[str, float]] = {}
        for sid, kind, t0, t1 in zip(self.ids, self.kinds, self.starts, self.ends):
            agg = out.setdefault(self.names[kind], {"calls": 0, "total": 0.0, "self": 0.0})
            agg["calls"] += 1
            agg["total"] += t1 - t0
            agg["self"] += (t1 - t0) - child.get(sid, 0.0)
        return out

    def write(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as fp:
            for sid, parent, kind, t0, t1 in zip(
                self.ids, self.parents, self.kinds, self.starts, self.ends
            ):
                phase, name = self.names[kind].split(":", 1)
                fp.write(
                    f'{{"run": {self.run_id}, "phase": "{phase}", "id": {sid}, '
                    f'"parent": {parent if parent >= 0 else "null"}, "name": "{name}", '
                    f'"start": {t0!r}, "end": {t1!r}}}\n'
                )
