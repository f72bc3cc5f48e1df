"""The benchmark's workloads: experiment configs generated from a seed.

Each workload builds one `ldesc-sim` experiment config (the JSON the CLI
reads) and states the number of demand accesses that config must produce,
worked out here from the tile arithmetic rather than read back from the
simulator. The seed is written into the config; the program sees only the
generated file.

`stream-numa` and `place-matrix` use REGULAR patterns only, so the seed
does not change their access streams or any simulated statistic.
`reuse-single` uses IRREGULAR (seeded-shuffle) patterns, so a held-out
seed exercises its shuffles and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

LINE = 128
FP32 = 4
PAGE = 64 * 1024  # structure bases must be page aligned


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], dict]
    expected_demand: int


def _page_up(addr: int) -> int:
    return -(-addr // PAGE) * PAGE


def _structure(name: str, base: int, elems: tuple[int, int, int]) -> dict:
    return {"name": name, "base_addr": hex(base), "elem_size": FP32, "dims": list(elems)}


def _descriptor(data: str, ltype: str, pattern: dict, dtile, ctile, cmap, priority: int,
                sharing: str | None = None) -> dict:
    out = {
        "data": data,
        "locality_type": ltype,
        "pattern": pattern,
        "dtile_dims": list(dtile),
        "ctile_dims": list(ctile),
        "compute_data_map": list(cmap),
        "priority": priority,
    }
    if sharing:
        out["sharing"] = sharing
    return out


def _regular(stride: int) -> dict:
    return {"kind": "REGULAR", "stride_bytes": stride}


IRREGULAR = {"kind": "IRREGULAR"}


# -- stream-numa ----------------------------------------------------------
# paper-numa (64 SMs, 4 zones), an 8x4 grid. Each of the 8 C-tiles (1x4
# CTAs) walks its own 16 KiB D-tile of a 128 KiB co-accessed stream with a
# 128 B stride; a 32 KiB no-reuse stream is split over the same C-tiles.
# The scaled engine workload in ROADMAP.md (a 64x4 grid, 4 MiB + 1 MiB,
# 139,264 accesses) has the same D-tile per C-tile, so the same per-CTA
# stream and L1 hit rate 0; its host time is in the same cycle loop. Fewer
# C-tiles keep one run short, so that a measured run averages many of them.

SN_GRID = (8, 4, 1)
SN_STREAM_ELEMS = 1 << 15  # 128 KiB of fp32
SN_NOREUSE_ELEMS = 1 << 13  # 32 KiB of fp32
SN_CTILES = 8


def _stream_numa(seed: int) -> dict:
    ctile = (1, SN_GRID[1], 1)
    return {
        "system": {"preset": "paper-numa"},
        "grid": {"dims": list(SN_GRID)},
        "data_structures": [
            _structure("stream", 0x0, (SN_STREAM_ELEMS, 1, 1)),
            _structure("noreuse", SN_STREAM_ELEMS * FP32, (SN_NOREUSE_ELEMS, 1, 1)),
        ],
        "descriptors": [
            _descriptor("stream", "INTER_THREAD", _regular(LINE),
                        (SN_STREAM_ELEMS // SN_CTILES, 1, 1), ctile, (1, 0, 0), 0,
                        sharing="COACCESSED"),
            _descriptor("noreuse", "NO_REUSE", _regular(LINE),
                        (SN_NOREUSE_ELEMS // SN_CTILES, 1, 1), ctile, (1, 0, 0), 1),
        ],
        "policy": "ldesc",
        "placement": "ldesc",
        "seed": seed,
    }


def _stream_numa_demand() -> int:
    ctas = SN_GRID[0] * SN_GRID[1]
    # every CTA of a C-tile walks the whole D-tile at one access per stride
    coaccessed = ctas * (SN_STREAM_ELEMS // SN_CTILES) * FP32 // LINE
    # the no-reuse stream is read once, one access per line
    return coaccessed + SN_NOREUSE_ELEMS * FP32 // LINE


# -- reuse-single ---------------------------------------------------------
# paper-single (15 SMs, one zone), a scaled-up configs/mixed.json: an
# irregular co-accessed table (soft pin), a no-reuse stream (bypass) and an
# irregular intra-thread scratch (hard pin). Each of the 6 CTAs runs alone
# on its SM, and its 36 KiB scratch exceeds the 32 KiB L1.

RS_CTAS = 6
RS_WARPS = 4
RS_TABLE_ELEMS = 1024  # 4 KiB, walked in full by every CTA
RS_STREAM_PER_CTA = 256  # 1 KiB per CTA
RS_SCRATCH_PER_CTA = 9216  # 36 KiB per CTA, walked twice


def _reuse_single(seed: int) -> dict:
    one = (1, 1, 1)
    stream_base = _page_up(RS_TABLE_ELEMS * FP32)
    scratch_base = _page_up(stream_base + RS_CTAS * RS_STREAM_PER_CTA * FP32)
    return {
        "system": {"preset": "paper-single"},
        "grid": {"dims": [RS_CTAS, 1, 1], "warps_per_cta": RS_WARPS},
        "data_structures": [
            _structure("table", 0x0, (RS_TABLE_ELEMS, 1, 1)),
            _structure("stream", stream_base, (RS_CTAS * RS_STREAM_PER_CTA, 1, 1)),
            _structure("scratch", scratch_base, (RS_CTAS * RS_SCRATCH_PER_CTA, 1, 1)),
        ],
        "descriptors": [
            _descriptor("table", "INTER_THREAD", IRREGULAR, (RS_TABLE_ELEMS, 1, 1),
                        (RS_CTAS, 1, 1), (1, 0, 0), 0, sharing="COACCESSED"),
            _descriptor("stream", "NO_REUSE", _regular(LINE), (RS_STREAM_PER_CTA, 1, 1),
                        one, (1, 0, 0), 1),
            _descriptor("scratch", "INTRA_THREAD", IRREGULAR, (RS_SCRATCH_PER_CTA, 1, 1),
                        one, (1, 0, 0), 2),
        ],
        "policy": "ldesc",
        "placement": "ldesc",
        "seed": seed,
    }


def _reuse_single_demand() -> int:
    table = RS_CTAS * RS_TABLE_ELEMS * FP32 // LINE
    stream = RS_CTAS * RS_STREAM_PER_CTA * FP32 // LINE
    scratch = 2 * RS_CTAS * RS_SCRATCH_PER_CTA * FP32 // LINE  # two passes
    return table + stream + scratch


# -- place-matrix ---------------------------------------------------------
# desk-numa (16 SMs, 4 zones): two N x N fp32 matrices in 64x64 D-tiles on
# an (N/64) x (N/64) grid, one C-tile per CTA; matrix B is traversed
# transposed. Each 64-element (256 B) tile row is one access at stride 256.
# The 16 CTAs run one per SM with 32 warps each, as many warps per SM as
# the 512 x 512 version with 8 warps per CTA has, so the L1 MSHRs fill up.

PM_N = 256
PM_TILE = 64
PM_STRIDE = 256
PM_WARPS = 32


def _place_matrix(seed: int) -> dict:
    g = PM_N // PM_TILE
    tile = (PM_TILE, PM_TILE, 1)
    one = (1, 1, 1)
    matrix_bytes = PM_N * PM_N * FP32
    return {
        "system": {"preset": "desk-numa"},
        "grid": {"dims": [g, g, 1], "warps_per_cta": PM_WARPS},
        "data_structures": [
            _structure("a", 0x0, (PM_N, PM_N, 1)),
            _structure("b", matrix_bytes, (PM_N, PM_N, 1)),
        ],
        "descriptors": [
            _descriptor("a", "INTER_THREAD", _regular(PM_STRIDE), tile, one, (1, 2, 0), 0,
                        sharing="COACCESSED"),
            _descriptor("b", "INTER_THREAD", _regular(PM_STRIDE), tile, one, (2, 1, 0), 1,
                        sharing="COACCESSED"),
        ],
        "policy": "ldesc",
        "placement": "ldesc",
        "seed": seed,
    }


def _place_matrix_demand() -> int:
    ctas = (PM_N // PM_TILE) ** 2
    per_tile = PM_TILE * -(-PM_TILE * FP32 // PM_STRIDE)  # rows x accesses per row
    return 2 * ctas * per_tile


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stream-numa",
            "engine, cache miss/inflight merging, stride prefetch and per-access "
            "NUMA zone resolution; trivial placement search",
            _stream_numa,
            _stream_numa_demand(),
        ),
        Workload(
            "reuse-single",
            "one zone: real L1 hits, pin priorities, victim choice, bypass and "
            "seeded shuffles; runs no NUMA code and issues no prefetches",
            _reuse_single,
            _reuse_single_demand(),
        ),
        Workload(
            "place-matrix",
            "2-D tiles with a transposed traversal: set-up is dominated by the "
            "placement search, and MSHR-full retries load the cycle loop",
            _place_matrix,
            _place_matrix_demand(),
        ),
    )
}
