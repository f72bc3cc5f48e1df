"""CTA grid geometry: tile indexing, traversal orders, byte decomposition.

Everything here is pure arithmetic over validated descriptors. CTAs, C-tiles
and D-tiles all flatten in X->Y->Z order (X fastest) unless the descriptor's
compute-data map says otherwise for the C-tile enumeration.

``TileTable`` enumerates one descriptor's C-tiles once: per C-tile its CTAs
and its D-tile, and per CTA its C-tile and rank. A D-tile's byte runs and
line list are worked out on first read, since access generation reads them
and the placement search does not (it counts zone bytes from each D-tile's
geometry). The table also maps an address of the structure to the D-tile
that holds it. The placement search, access generation and the stride
prefetcher's streams all read these facts from it rather than working them
out again, and this module alone works out a D-tile's geometry: its first
byte, its extents clipped to the structure and the structure's pitches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .descriptor import (
    LocalityDescriptor,
    Triple,
    ctile_count,
    dtile_count,
)


@dataclass(frozen=True)
class CtaGrid:
    """3D grid of CTAs; each CTA runs ``warps_per_cta`` warps."""

    dims: Triple
    warps_per_cta: int = 8

    @property
    def total_ctas(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]


@dataclass(frozen=True)
class TileIndex:
    """Tile coordinates plus their X->Y->Z flat linearization."""

    coords: Triple
    flat: int


class ByteRun(NamedTuple):
    """A contiguous byte range [start, start+length) of one data structure."""

    start: int
    length: int


def unflatten_xyz(flat: int, counts: Triple) -> Triple:
    x = flat % counts[0]
    rest = flat // counts[0]
    return (x, rest % counts[1], rest // counts[1])


def box_ctas(box: Triple, dims: Triple, grid: CtaGrid) -> list[int]:
    """CTA flat ids of box ``box`` in the grid's tiling by ``dims``-shaped
    boxes (a C-tile or a cluster), clipped to the grid, in X->Y->Z order."""
    gx, gy, gz = grid.dims
    x0, y0, z0 = box[0] * dims[0], box[1] * dims[1], box[2] * dims[2]
    xs = range(x0, min(x0 + dims[0], gx))
    return [
        x + gx * (y + gy * z)
        for z in range(z0, min(z0 + dims[2], gz))
        for y in range(y0, min(y0 + dims[1], gy))
        for x in xs
    ]


def _dtile_geometry(
    dtile: TileIndex, desc: LocalityDescriptor
) -> tuple[int, Triple, tuple[int, int]]:
    """A D-tile's first byte, its ``(run bytes, rows, planes)`` clipped to
    the data structure's extent, and the structure's ``(row, plane)``
    pitches in bytes: run (y, z) starts at ``first + y * row + z * plane``.
    """
    ds, (dx, dy, dz) = desc.data, desc.tiles.dtile_dims
    elem, (lenx, leny, lenz) = ds.elem_size, ds.dims
    ix, iy, iz = dtile.coords
    x0, y0, z0 = ix * dx, iy * dy, iz * dz
    first = ds.base_addr + ((z0 * leny + y0) * lenx + x0) * elem
    shape = (min(dx, lenx - x0) * elem, min(dy, leny - y0), min(dz, lenz - z0))
    return first, shape, (lenx * elem, leny * lenx * elem)


def dtile_byte_runs(dtile: TileIndex, desc: LocalityDescriptor) -> list[ByteRun]:
    """Row-major decomposition of a D-tile into contiguous byte runs.

    One run per (y, z) line inside the tile, ordered and disjoint; edge
    tiles are clipped to the data structure's extent.
    """
    first, (length, rows, planes), (row, plane) = _dtile_geometry(dtile, desc)
    new = tuple.__new__  # a ByteRun without a Python __new__ frame per run
    return [
        new(ByteRun, (p + r, length))
        for p in range(first, first + planes * plane, plane)
        for r in range(0, rows * row, row)
    ]


def _lines_of_runs(runs: list[ByteRun], line_size: int) -> list[int]:
    return list(dict.fromkeys(chain.from_iterable(
        range(start - start % line_size, start + length, line_size) for start, length in runs
    )))


class TileTable:
    """One descriptor's C-tiles over one grid, enumerated once.

    C-tile k (X->Y->Z flat) keeps ``ctas[k]``, its CTA flat ids in X->Y->Z
    order, and ``dtiles[k]``, the D-tile it accesses. ``slot[flat]`` is a
    CTA's (k, rank): its C-tile and its index in ``ctas[k]``. ``runs(k)``,
    the D-tile's byte runs, and ``lines(k, line_size)`` are worked out on
    first read and then shared by every CTA of the C-tile.

    ``[base, end)`` is the structure's byte range, ``row_bytes`` a D-tile's
    X extent in bytes, and ``dtile_at(addr)`` the X->Y->Z flat index of the
    D-tile that holds an address in that range.
    """

    def __init__(self, desc: LocalityDescriptor, grid: CtaGrid):
        self.desc = desc
        self.grid = grid
        self._runs: dict[int, list[ByteRun]] = {}
        self._lines: dict[tuple[int, int], list[int]] = {}
        ds = desc.data
        self.base, self.end = ds.base_addr, ds.end_addr
        self.row_bytes = desc.tiles.dtile_dims[0] * ds.elem_size
        counts, dcounts = ctile_count(desc, grid), dtile_count(desc)
        self._geometry = (ds.elem_size, *ds.dims[:2], *desc.tiles.dtile_dims, *dcounts[:2])
        # The k-th C-tile in map-ranked order (the rank-1 axis fastest)
        # accesses the k-th D-tile in X->Y->Z order, so C-tile (x, y, z) takes
        # D-tile x * sx + y * sy + z * sz. A rank-0 axis holds one C-tile
        # (validation pins its count to 1) and keeps scale 0.
        ranks = desc.tiles.compute_data_map
        scales, scale = [0, 0, 0], 1
        for axis in sorted((a for a in range(3) if ranks[a]), key=ranks.__getitem__):
            scales[axis], scale = scale, scale * counts[axis]
        sx, sy, sz = scales
        cx, cy, cz = counts
        ctiles = [(x, y, z) for z in range(cz) for y in range(cy) for x in range(cx)]
        self.ctas = [box_ctas(ctile, desc.tiles.ctile_dims, grid) for ctile in ctiles]
        self.dtiles = [
            TileIndex(unflatten_xyz(k, dcounts), k)
            for k in (x * sx + y * sy + z * sz for x, y, z in ctiles)
        ]
        self.slot = {
            flat: (k, rank) for k, flats in enumerate(self.ctas) for rank, flat in enumerate(flats)
        }

    def dtile_at(self, addr: int) -> int:
        elem_size, lenx, leny, dx, dy, dz, nx, ny = self._geometry
        row, ex = divmod((addr - self.base) // elem_size, lenx)
        ez, ey = divmod(row, leny)
        return ex // dx + nx * (ey // dy + ny * (ez // dz))

    def runs(self, k: int) -> list[ByteRun]:
        """Byte runs of C-tile k's D-tile.

        The list is shared by every caller; it must not be changed.
        """
        if k not in self._runs:
            self._runs[k] = dtile_byte_runs(self.dtiles[k], self.desc)
        return self._runs[k]

    def lines(self, k: int, line_size: int) -> list[int]:
        """Line addresses of C-tile k's D-tile, in run order, each once.

        The list is shared by every caller; it must not be changed.
        """
        key = (k, line_size)
        if key not in self._lines:
            self._lines[key] = _lines_of_runs(self.runs(k), line_size)
        return self._lines[key]
