"""Descriptor-guided prefetching for inter-thread data.

NEARBY sharing gets plain nextline prefetching. COACCESSED sharing with a
regular stride gets a computed lookahead: the distance shrinks as more data
tiles stream concurrently, so the prefetched lines still fit in L1:

    target = addr + (l1_size // (active_tiles * dtile_width)) * stride

A zero distance factor (tiny cache, many streams) falls back to nextline.
Requests that would land outside the data structure are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .descriptor import LocalityDescriptor, LocalityType, SharingType
from .errors import UnknownStream
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
    desc: LocalityDescriptor,
    l1_size: int,
    state: StreamState,
    line_size: int = 128,
) -> list[int]:
    """React to a demand miss at ``addr``, inside the descriptor's structure:
    track the stream and return the addresses to prefetch, at most one."""
    if desc.ltype is not LocalityType.INTER_THREAD:
        return []
    tiles = state.tiles
    state.active_dtiles.add(tiles.flat_of(addr))
    if desc.sharing is SharingType.NEARBY:
        target = addr + line_size
    elif desc.sharing is SharingType.COACCESSED and desc.pattern.regular:
        factor = l1_size // (len(state.active_dtiles) * tiles.row_bytes)
        if factor == 0:
            target = addr + line_size  # nextline fallback
        else:
            target = addr + factor * desc.pattern.stride_bytes
    else:
        return []  # COACCESSED irregular: retention is the cache's job
    if not tiles.base <= target < tiles.end:
        return []
    return [target]


def retire_stream(dtile_flat: int, state: StreamState) -> None:
    """Drop a finished data tile from the active set, widening later distances."""
    try:
        state.active_dtiles.remove(dtile_flat)
    except KeyError:
        raise UnknownStream(f"data tile {dtile_flat} has no active stream") from None
