"""Descriptor-guided prefetching.

A descriptor's policy names the prefetcher kind its demand misses run.
NEXTLINE prefetches the next line. STRIDE computes a lookahead along the
descriptor's stride: the distance shrinks as more data tiles stream
concurrently, so the prefetched lines still fit in L1:

    target = addr + (l1_size // (active_tiles * dtile_width)) * stride

A zero distance factor (tiny cache, many streams) falls back to nextline.
Requests that would land outside the data structure are dropped. Which
D-tiles stream on an SM is the engine's to track; it passes their count.
"""

from __future__ import annotations

from enum import Enum

from .grid import TileTable


class PrefetchKind(Enum):
    NONE = "NONE"
    NEXTLINE = "NEXTLINE"
    STRIDE = "STRIDE"


# The miss path reads a global several times faster than an enum member;
# the engine imports these aliases too.
_NO_PREFETCH = PrefetchKind.NONE
_NEXTLINE = PrefetchKind.NEXTLINE
_STRIDE = PrefetchKind.STRIDE


def on_miss(
    addr: int,
    kind: PrefetchKind,
    table: TileTable,
    l1_size: int,
    active_tiles: int,
    line_size: int = 128,
) -> list[int]:
    """The addresses, at most one, that prefetcher ``kind`` fetches on a
    demand miss at ``addr`` inside ``table``'s structure, while
    ``active_tiles`` of its D-tiles stream on the SM (STRIDE only)."""
    if kind is _NEXTLINE:
        target = addr + line_size
    elif kind is _STRIDE:
        factor = l1_size // (active_tiles * table.row_bytes)
        if factor == 0:
            target = addr + line_size  # nextline fallback
        else:
            target = addr + factor * table.desc.pattern.stride_bytes
    else:
        return []  # NONE
    if not table.base <= target < table.end:
        return []
    return [target]
