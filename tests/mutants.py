#!/usr/bin/env python3
"""Checked-in mutation list: each mutant must be caught by the test it names.

    python tests/mutants.py            # every mutant
    python tests/mutants.py 2 5        # only the mutants at these indexes

A mutant is (file under the checkout root, old text that must occur in it
exactly once, new text, pytest node id). For each one the script copies
``src/`` and ``tests/``, with the ``configs/`` and ``docs/`` that tests
read, to a temporary directory, replaces the old text by the new one there
and runs ``pytest -x -q -p no:cacheprovider --hypothesis-profile=mutants
<node>`` against the copy. That profile (``tests/conftest.py``) draws the ci
profile's derandomized examples, which make each catch repeatable, and does
not shrink a failing one, since any failure is a catch. The named tests
first run once on an unmutated copy, where they must pass.

It exits 1 when a mutant survives (its test passes), does not apply (its
old text occurs other than once), or its test fails on the unmutated copy
or cannot run. The file is not a ``test_*.py`` module, so the tier-1 suite
does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    node: str


ENGINE, NUMA = "src/ldesc_sim/engine.py", "src/ldesc_sim/numa.py"
SCHED, CACHE = "src/ldesc_sim/sched.py", "src/ldesc_sim/cache.py"
GRID = "src/ldesc_sim/grid.py"
FLIP_TIE = ("return votes.index(max(votes))",
            "return len(votes) - 1 - votes[::-1].index(max(votes))")
CYCLE_LOOP = "tests/test_engine.py::test_cycle_loop_matches_the_loops_it_replaced"
SLOW_HITS = "tests/test_engine.py::test_cycle_loop_matches_the_old_loop_with_slow_l1_hits"
STREAMS = "tests/test_prefetch.py::test_stream_tracking_matches_the_code_it_replaced"
CACHE_ORACLE = "tests/test_cache.py::test_cache_matches_full_array_oracle"
GENERATION = "tests/test_engine.py::test_access_generation_matches_the_loops_it_replaced"
TILE_TABLE = "tests/test_grid.py::test_tile_table_matches_per_cta_functions"
SHARED_COUNTS = ("tests/test_numa.py::"
                 "test_zone_bytes_shared_across_descriptors_match_the_run_count")

MUTANTS = [
    # The interval map: an address at a cut point takes the interval below it.
    Mutant(ENGINE, "row = self.owner[bisect_right(self.bounds, addr)]\n        if row is None:\n"
           "            raise",
           "row = self.owner[bisect_left(self.bounds, addr)]\n        if row is None:\n"
           "            raise",
           "tests/test_engine.py::test_row_map_is_the_priority_scan"),
    # The interval map: an interval goes to the last row holding it, not the first.
    Mutant(ENGINE, "next((r for r in self.rows if r.base <= lo < r.end), None)",
           "next((r for r in reversed(self.rows) if r.base <= lo < r.end), None)",
           "tests/test_engine.py::test_row_map_is_the_priority_scan"),
    # A replayed CTA counts one pending access, whatever its events.
    Mutant(ENGINE, "slot.cta.pending += 1", "slot.cta.pending = 1",
           "tests/test_cli.py::test_trace_round_trip"),
    # Each access counts in its SM's zone, not its home zone.
    Mutant(ENGINE, "sm.homes[home] += 1", "sm.homes[sm.zone] += 1",
           "tests/test_engine.py::test_numa_xor_spreads_accesses"),
    # A multi-zone run places first-touch pages in its caller's page table.
    Mutant(ENGINE, "fresh = replace(mapping, page_table=dict(mapping.page_table))",
           "fresh = mapping",
           "tests/test_engine.py::test_simulate_leaves_its_arguments_unchanged"),
    # A prefetched line evicted before its demand counts as useful.
    Mutant(ENGINE, "if outcome is not _MISS:", "if True:",
           "tests/test_prefetch.py::test_prefetch_evicted_before_its_demand_is_not_useful"),
    # Majority-zone ties go to the highest zone, not the lowest: caught by the
    # hand-worked search case, by the schedule reference's own vote count and
    # by the placement reference's.
    Mutant(SCHED, *FLIP_TIE,
           "tests/test_numa.py::test_place_and_partition_majority_ties_go_to_the_lowest_zone"),
    Mutant(SCHED, *FLIP_TIE,
           "tests/test_sched.py::test_box_schedules_match_the_code_they_replaced"),
    Mutant(SCHED, *FLIP_TIE, "tests/test_acceptance.py::test_criterion_2_alg2_optimality"),
    # A C-tile whose D-tile's bytes split evenly goes to the highest zone.
    Mutant(NUMA, "[zb.index(max(zb)) for zb in",
           "[len(zb) - 1 - zb[::-1].index(max(zb)) for zb in",
           "tests/test_numa.py::test_place_and_partition_zone_byte_ties_go_to_the_lowest_zone"),
    # A D-tile's bytes by in-stripe offset are rotated the wrong way.
    Mutant(NUMA, "by_key[key] = zb[-r:] + zb[:-r]", "by_key[key] = zb[r:] + zb[:r]",
           SHARED_COUNTS),
    # The counts by offset are shared by D-tiles of equal extents but other pitches.
    Mutant(NUMA, "base = (low_bit, shape, pitches, offset)", "base = (low_bit, shape, offset)",
           SHARED_COUNTS),
    # A later descriptor over the top structure refits its bit, so that the
    # candidate's own bit is overridden.
    Mutant(NUMA, "if names[i] != top and names[i] not in fitted:",
           "if names[i] not in fitted:",
           "tests/test_numa.py::test_search_matches_the_reference_over_shared_structures"),
    # A fitted structure's utility ties go to the highest bit.
    Mutant(NUMA, "max(bits, key=lambda b:", "max(reversed(bits), key=lambda b:",
           "tests/test_numa.py::test_place_and_partition_majority_ties_go_to_the_lowest_zone"),
    # From here on, the engine against the reference engine in tests/oracles.py
    # unless the entry names another test.
    # A finished CTA sends its SM's next scan to the first warp.
    Mutant(ENGINE, "sm.ptr %= len(sm.slots)", "sm.ptr = 0", STREAMS),
    Mutant(ENGINE, "sm.ptr %= len(sm.slots)", "sm.ptr = 0", SLOW_HITS),
    # A remote access does not wait for the link.
    Mutant(ENGINE, "lat.remote_mem + math.ceil(start) - cycle", "lat.remote_mem", CYCLE_LOOP),
    # A stride stream never ends.
    Mutant(ENGINE, "if sm.users[key] == 0:", "if False:", STREAMS),
    # A stream that ends is taken off row 0's set, not its own row's.
    Mutant(ENGINE, "sm.streams[key[0]].discard(key[1])", "sm.streams[0].discard(key[1])",
           STREAMS),
    # A live run queues the schedule's CTAs on their SMs in descending flat order.
    Mutant(ENGINE, "sorted(self.schedule.assignment.items())",
           "sorted(self.schedule.assignment.items(), reverse=True)", CYCLE_LOOP),
    # The cycle is looked up in the trace loader's memo under the CTA's text:
    # caught once the reference properties replay through dumped text.
    Mutant(ENGINE, "int(addr, 16), num[cycle])", "int(addr, 16), num[cta])", CYCLE_LOOP),
    # A replayed event whose (CTA, warp) slot exists skips the SM check.
    Mutant(ENGINE, "key = sm, cta, warp", "key = cta, warp",
           "tests/test_engine.py::test_trace_replay_raises_the_first_bad_events_error"),
    # A live scan queues the next cycle whenever an SM issued, not only while
    # one is still awake.
    Mutant(ENGINE, "sm.ptr = (j + 1) % len(sm.slots)\n",
           "sm.ptr = (j + 1) % len(sm.slots)\n                    self._due_at(cycle + 1)\n",
           "tests/test_engine.py::test_live_run_visits_no_cycle_without_work"),
    # A replayed CTA is not resident on the SM of its first event.
    Mutant(ENGINE, "                    entry[1].resident.append(entry[0])\n", "",
           "tests/test_engine.py::test_trace_replay_reproduces_metrics"),
    # An inflight hit completes as an L1 hit, not when its line lands.
    Mutant(ENGINE, "completion = sm.fill_at[line_addr]", "completion = cycle + self.l1_hit",
           CYCLE_LOOP),
    # The next scan starts at the warp that just issued, not after it.
    Mutant(ENGINE, "sm.ptr = (j + 1) % len(sm.slots)", "sm.ptr = j", CYCLE_LOOP),
    # The total cycles are one short.
    Mutant(ENGINE, "self.last_completion = cycle", "self.last_completion = cycle - 1",
           CYCLE_LOOP),
    # The prefetcher requests a line that is already in flight.
    Mutant(CACHE, "if line in self.sets[line % self.num_sets] or line in self.mshr:",
           "if line in self.sets[line % self.num_sets]:", STREAMS),
    # Every stride miss streams on D-tile 0.
    Mutant(ENGINE, "active.add(table.dtile_at(addr))", "active.add(0)", STREAMS),
    # A prefetch target takes the missing row's mapping, not its own row's.
    Mutant(ENGINE, "held_by = self.owner[bisect_right(self.bounds, line_addr)]",
           "held_by = row",
           "tests/test_engine.py::"
           "test_prefetch_into_a_higher_priority_row_uses_that_rows_mapping"),
    # A BITRANGE row interleaves zones one address bit too high.
    Mutant(ENGINE, "shift, home = mapping.low_bit, None", "shift, home = mapping.low_bit + 1, None",
           "tests/test_engine.py::test_row_resolver_matches_the_home_zone_rule"),
    # An L2 hit stays where it was in its set's recency order.
    Mutant(CACHE, "del ways[line]\n            ways[line] = held\n            return True",
           "return True", CACHE_ORACLE),
    # An L2 hit unpins its line.
    Mutant(CACHE, "ways[line] = held\n            return True",
           "ways[line] = 0\n            return True",
           "tests/test_cache.py::test_lookup_fill_hit_keeps_the_pin_and_becomes_most_recent"),
    # A prefetch takes an MSHR entry that is not free.
    Mutant(CACHE, "if len(self.mshr) >= self.config.mshr_entries:\n            return False\n"
           "        self.mshr[line] = _SOFT_PIN", "self.mshr[line] = _SOFT_PIN", CACHE_ORACLE),
    # Access generation against the per-element loops in tests/oracles.py,
    # and the queues through the reference engine, which builds its own.
    # A CTA's descriptors take turns in reverse priority order.
    Mutant(ENGINE, "chain.from_iterable(zip_longest(*streams))",
           "chain.from_iterable(zip_longest(*streams[::-1]))", GENERATION),
    Mutant(ENGINE, "chain.from_iterable(zip_longest(*streams))",
           "chain.from_iterable(zip_longest(*streams[::-1]))", CYCLE_LOOP),
    # Intra-thread warps are queued one after another, not index by index.
    Mutant(ENGINE, "list(filter(None, chain.from_iterable(zip_longest(*per_warp))))",
           "list(chain.from_iterable(per_warp))", GENERATION),
    # A stream's first access goes to the last warp.
    Mutant(ENGINE, "zip(cycle(range(warps)), addrs)", "zip(cycle(range(warps)[::-1]), addrs)",
           "tests/test_engine.py::test_generate_regular_walk_ascending"),
    # A line that two runs share is listed once per run.
    Mutant(GRID, "list(dict.fromkeys(chain.from_iterable(", "list((chain.from_iterable(",
           GENERATION),
    # A D-tile's planes are stepped by the row pitch.
    Mutant(GRID, "planes * plane, plane)", "planes * plane, row)", GENERATION),
    # C-tiles pair with D-tiles in map-ranked order with the rank-3 axis fastest.
    Mutant(GRID, "key=ranks.__getitem__):", "key=ranks.__getitem__, reverse=True):",
           "tests/test_grid.py::test_map_312_traverses_y_first"),
    Mutant(GRID, "key=ranks.__getitem__):", "key=ranks.__getitem__, reverse=True):",
           TILE_TABLE),
    # The map-ranked scales step by the D-tile counts, not the C-tile counts.
    Mutant(GRID, "scale * counts[axis]", "scale * dcounts[axis]",
           "tests/test_grid.py::test_mapping_bijection_small_spaces"),
    Mutant(GRID, "scale * counts[axis]", "scale * dcounts[axis]", TILE_TABLE),
    # An edge D-tile keeps its full X, Y or Z extent past the end of the structure.
    Mutant(GRID, "min(dx, lenx - x0) * elem", "dx * elem",
           "tests/test_grid.py::test_byte_runs_edge_tile"),
    Mutant(GRID, "min(dx, lenx - x0) * elem", "dx * elem", TILE_TABLE),
    Mutant(GRID, "min(dy, leny - y0)", "dy", TILE_TABLE),
    Mutant(GRID, "min(dz, lenz - z0)", "dz", TILE_TABLE),
    Mutant(GRID, "min(dy, leny - y0)", "dy",
           "tests/test_acceptance.py::test_criterion_2_alg2_optimality"),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests", "configs", "docs"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def _pytest(tree: Path, node: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", node],
        cwd=tree, env=env, capture_output=True, text=True,
    )


def _tail(proc: subprocess.CompletedProcess) -> str:
    return "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-5:])


def run(indexes: list[int]) -> int:
    failures = caught = 0
    with tempfile.TemporaryDirectory(prefix="ldesc-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        for node in sorted({MUTANTS[i].node for i in indexes}):
            proc = _pytest(clean, node)
            if proc.returncode != 0:
                failures += 1
                print(f"FAIL {node} does not pass on the unmutated tree:\n{_tail(proc)}")
        for i in indexes:
            m = MUTANTS[i]
            tree = Path(tmp) / f"m{i}"
            _copy(tree)
            target = tree / m.path
            text = target.read_text()
            count = text.count(m.old)
            if count != 1:
                failures += 1
                print(f"FAIL [{i}] {m.path}: old text occurs {count} times, not once")
                continue
            target.write_text(text.replace(m.old, m.new))
            proc = _pytest(tree, m.node)
            if proc.returncode == 1:
                caught += 1
                print(f"ok   [{i}] caught by {m.node}")
            elif proc.returncode == 0:
                failures += 1
                print(f"FAIL [{i}] survived {m.node}: {m.path}: {m.new!r}")
            else:
                failures += 1
                print(f"FAIL [{i}] pytest exited {proc.returncode} on {m.node}:\n{_tail(proc)}")
            shutil.rmtree(tree)
    print(f"{caught} of {len(indexes)} mutants caught; {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    picked = [int(a) for a in sys.argv[1:]] or list(range(len(MUTANTS)))
    sys.exit(run(picked))
