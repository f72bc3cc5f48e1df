"""Descriptor-guided prefetching.

A descriptor's policy names the prefetcher kind its demand misses run.
NEXTLINE prefetches the next line. STRIDE computes a lookahead along the
descriptor's stride: the distance shrinks as more data tiles stream
concurrently, so the prefetched lines still fit in L1:

    target = addr + (l1_size // (active_tiles * dtile_width)) * stride

A zero distance factor (tiny cache, many streams) falls back to nextline.
Requests that would land outside the data structure are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .descriptor import LocalityDescriptor
from .grid import DtileGeometry


class PrefetchKind(Enum):
    NONE = "NONE"
    NEXTLINE = "NEXTLINE"
    STRIDE = "STRIDE"


@dataclass
class StreamState:
    """Per-context prefetcher state for one descriptor: its D-tile geometry
    and the D-tiles streaming now."""

    tiles: DtileGeometry
    active_dtiles: set[int] = field(default_factory=set)

    @classmethod
    def for_descriptor(cls, desc: LocalityDescriptor) -> "StreamState":
        return cls(DtileGeometry(desc))


def on_miss(
    addr: int,
    kind: PrefetchKind,
    desc: LocalityDescriptor,
    l1_size: int,
    state: StreamState,
    line_size: int = 128,
) -> list[int]:
    """React to a demand miss at ``addr``, inside the descriptor's structure,
    with prefetcher ``kind``: track the stream and return the addresses to
    prefetch, at most one."""
    tiles = state.tiles
    state.active_dtiles.add(tiles.flat_of(addr))
    if kind is PrefetchKind.NEXTLINE:
        target = addr + line_size
    elif kind is PrefetchKind.STRIDE:
        factor = l1_size // (len(state.active_dtiles) * tiles.row_bytes)
        if factor == 0:
            target = addr + line_size  # nextline fallback
        else:
            target = addr + factor * desc.pattern.stride_bytes
    else:
        return []  # NONE
    if not tiles.base <= target < tiles.end:
        return []
    return [target]
