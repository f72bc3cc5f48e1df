"""CTA grid geometry: tile indexing, traversal orders, byte decomposition.

Everything here is pure arithmetic over validated descriptors. CTAs, C-tiles
and D-tiles all flatten in X->Y->Z order (X fastest) unless the descriptor's
compute-data map says otherwise for the C-tile enumeration.

``TileTable`` enumerates one descriptor's C-tiles once: per C-tile its CTAs,
its D-tile and that D-tile's byte runs, and per CTA its C-tile and rank.
The placement search, access generation and prefetch stream retirement all
read these facts from it rather than working them out again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .descriptor import (
    LocalityDescriptor,
    Triple,
    ctile_count,
    dtile_count,
)
from .errors import OutOfGrid, OutOfRange


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


def flatten_xyz(coords: Triple, counts: Triple) -> int:
    x, y, z = coords
    return x + counts[0] * (y + counts[1] * z)


def unflatten_xyz(flat: int, counts: Triple) -> Triple:
    x = flat % counts[0]
    rest = flat // counts[0]
    return (x, rest % counts[1], rest // counts[1])


def cta_flat(cta: Triple, grid: CtaGrid) -> int:
    """X->Y->Z flat index of a CTA in the grid."""
    return flatten_xyz(cta, grid.dims)


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


def ctile_of_cta(cta: Triple, desc: LocalityDescriptor, grid: CtaGrid) -> TileIndex:
    """C-tile containing a CTA: componentwise floor division by the C-tile dims."""
    if any(not 0 <= cta[i] < grid.dims[i] for i in range(3)):
        raise OutOfGrid(f"CTA {cta} outside grid {grid.dims}")
    c = desc.tiles.ctile_dims
    coords = (cta[0] // c[0], cta[1] // c[1], cta[2] // c[2])
    return TileIndex(coords, flatten_xyz(coords, ctile_count(desc, grid)))


def _enumeration_index(ctile: Triple, counts: Triple, ranks: Triple) -> int:
    # Axes are consumed fastest-first: rank 1, then 2, then 3. Rank-0 axes
    # always hold index 0 (validation pins their count to 1).
    axes = sorted((a for a in range(3) if ranks[a] != 0), key=lambda a: ranks[a])
    index = 0
    scale = 1
    for axis in axes:
        index += ctile[axis] * scale
        scale *= counts[axis]
    return index


def dtile_of_ctile(
    ctile: TileIndex, desc: LocalityDescriptor, grid: CtaGrid
) -> TileIndex:
    """The D-tile a C-tile accesses under the descriptor's compute-data map.

    The k-th C-tile in map-ranked traversal order pairs with the k-th D-tile
    in X->Y->Z order; validation guarantees the counts match, so this is a
    bijection.
    """
    c_counts = ctile_count(desc, grid)
    if any(not 0 <= ctile.coords[i] < c_counts[i] for i in range(3)):
        raise OutOfRange(f"C-tile {ctile.coords} outside counts {c_counts}")
    k = _enumeration_index(ctile.coords, c_counts, desc.tiles.compute_data_map)
    d_counts = dtile_count(desc)
    return TileIndex(unflatten_xyz(k, d_counts), k)


def dtile_byte_runs(dtile: TileIndex, desc: LocalityDescriptor) -> list[ByteRun]:
    """Row-major decomposition of a D-tile into contiguous byte runs.

    One run per (y, z) line inside the tile, ordered and disjoint; edge
    tiles are clipped to the data structure's extent.
    """
    ds = desc.data
    dx, dy, dz = desc.tiles.dtile_dims
    lenx, leny, lenz = ds.dims
    ix, iy, iz = dtile.coords
    x0 = ix * dx
    run_elems = min(dx, lenx - x0)
    runs = []
    for z in range(min(dz, lenz - iz * dz)):
        for y in range(min(dy, leny - iy * dy)):
            elem = ((iz * dz + z) * leny + (iy * dy + y)) * lenx + x0
            runs.append(
                ByteRun(ds.base_addr + elem * ds.elem_size, run_elems * ds.elem_size)
            )
    return runs


def dtile_of_address(addr: int, desc: LocalityDescriptor) -> TileIndex:
    """D-tile containing a byte address of the descriptor's structure."""
    ds = desc.data
    if not ds.contains(addr):
        raise OutOfRange(f"address {addr:#x} outside {ds.name}")
    elem = (addr - ds.base_addr) // ds.elem_size
    lenx, leny, _ = ds.dims
    ex = elem % lenx
    ey = (elem // lenx) % leny
    ez = elem // (lenx * leny)
    d = desc.tiles.dtile_dims
    coords = (ex // d[0], ey // d[1], ez // d[2])
    return TileIndex(coords, flatten_xyz(coords, dtile_count(desc)))


class DtileGeometry:
    """One descriptor's structure extent and D-tile shape, worked out once.

    ``flat_of(addr)`` equals ``dtile_of_address(addr, desc).flat`` for an
    address inside the structure, without building a ``TileIndex`` or
    recounting the D-tiles; ``row_bytes`` is a D-tile's X extent in bytes.
    """

    __slots__ = ("base", "end", "elem_size", "lenx", "leny", "dtile_dims", "counts",
                 "row_bytes")

    def __init__(self, desc: LocalityDescriptor):
        ds = desc.data
        self.base = ds.base_addr
        self.end = ds.end_addr
        self.elem_size = ds.elem_size
        self.lenx, self.leny, _ = ds.dims
        self.dtile_dims = desc.tiles.dtile_dims
        self.counts = dtile_count(desc)
        self.row_bytes = self.dtile_dims[0] * ds.elem_size

    def flat_of(self, addr: int) -> int:
        elem = (addr - self.base) // self.elem_size
        row, ex = divmod(elem, self.lenx)
        ez, ey = divmod(row, self.leny)
        dx, dy, dz = self.dtile_dims
        nx, ny, _ = self.counts
        return ex // dx + nx * (ey // dy + ny * (ez // dz))


def _lines_of_runs(runs: list[ByteRun], line_size: int) -> list[int]:
    lines: list[int] = []
    seen = set()
    for run in runs:
        first = run.start // line_size
        last = (run.start + run.length - 1) // line_size
        for ln in range(first, last + 1):
            if ln not in seen:
                seen.add(ln)
                lines.append(ln * line_size)
    return lines


class TileTable:
    """One descriptor's C-tiles over one grid, enumerated once.

    C-tile k (X->Y->Z flat) keeps ``ctas[k]``, its CTA flat ids in X->Y->Z
    order; ``dtiles[k]``, the D-tile it accesses; and ``runs[k]``, that
    D-tile's byte runs. ``slot[flat]`` is a CTA's (k, rank): its C-tile and
    its index in ``ctas[k]``. ``lines(k, line_size)`` is worked out on
    first use and then shared by every CTA of the C-tile.
    """

    def __init__(self, desc: LocalityDescriptor, grid: CtaGrid):
        self.desc = desc
        self.grid = grid
        self.ctas: list[list[int]] = []
        self.dtiles: list[TileIndex] = []
        self.runs: list[list[ByteRun]] = []
        self.slot: dict[int, tuple[int, int]] = {}
        self._lines: dict[tuple[int, int], list[int]] = {}
        counts = ctile_count(desc, grid)
        for k in range(counts[0] * counts[1] * counts[2]):
            ctile = TileIndex(unflatten_xyz(k, counts), k)
            flats = box_ctas(ctile.coords, desc.tiles.ctile_dims, grid)
            for rank, flat in enumerate(flats):
                self.slot[flat] = (k, rank)
            dtile = dtile_of_ctile(ctile, desc, grid)
            self.ctas.append(flats)
            self.dtiles.append(dtile)
            self.runs.append(dtile_byte_runs(dtile, desc))

    def lines(self, k: int, line_size: int) -> list[int]:
        """Line addresses of C-tile k's D-tile, in run order, each once.

        The list is shared by every caller; it must not be changed.
        """
        key = (k, line_size)
        if key not in self._lines:
            self._lines[key] = _lines_of_runs(self.runs[k], line_size)
        return self._lines[key]
