"""Locality descriptors: the per-data-structure locality contract.

A descriptor names one data structure, states how its reuse behaves
(inter-thread, intra-thread, or none), and partitions both the structure
and the compute grid into tiles so the scheduler, cache and NUMA placement
can act on the declared sharing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import InvalidTileSemantics, MisalignedBase, OverlapConflict

if TYPE_CHECKING:
    from .grid import CtaGrid

PAGE_BITS = 16  # 64 KiB pages: base alignment and first-touch placement
PAGE_SIZE = 1 << PAGE_BITS

Triple = tuple[int, int, int]


class LocalityType(Enum):
    INTER_THREAD = "INTER_THREAD"
    INTRA_THREAD = "INTRA_THREAD"
    NO_REUSE = "NO_REUSE"


class SharingType(Enum):
    COACCESSED = "COACCESSED"
    NEARBY = "NEARBY"


@dataclass(frozen=True)
class AccessPattern:
    """REGULAR access with a byte stride, or IRREGULAR with none."""

    regular: bool
    stride_bytes: int = 0

    @classmethod
    def regular_stride(cls, stride_bytes: int) -> "AccessPattern":
        return cls(regular=True, stride_bytes=stride_bytes)

    @classmethod
    def irregular(cls) -> "AccessPattern":
        return cls(regular=False)


@dataclass(frozen=True)
class DataStructureRef:
    """A named global-memory array: base address, element size, 3D extent.

    Layout is row-major with X fastest varying; the base must be 64 KiB
    page aligned so bit-range NUMA interleaving never straddles the start.
    """

    name: str
    base_addr: int
    elem_size: int
    dims: Triple

    @property
    def total_elems(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def total_bytes(self) -> int:
        return self.total_elems * self.elem_size

    @property
    def end_addr(self) -> int:
        return self.base_addr + self.total_bytes


@dataclass(frozen=True)
class TileSemantics:
    """D-tile/C-tile shapes plus the compute-data traversal map.

    ``compute_data_map`` ranks the C-tile axes: the axis with rank 1 is
    traversed fastest while D-tiles advance in X->Y->Z order. A full map is
    a permutation of {1,2,3}; rank-0 axes are left out of the enumeration
    (the 1D form, e.g. (1,0,0), maps along X alone).
    """

    dtile_dims: Triple
    ctile_dims: Triple
    compute_data_map: Triple = (1, 2, 3)


@dataclass(frozen=True)
class LocalityDescriptor:
    """One data structure's locality declaration.

    ``sharing`` is present exactly when ``ltype`` is INTER_THREAD.
    Priority 0 is the highest; overlapping descriptors must not tie.
    """

    data: DataStructureRef
    ltype: LocalityType
    tiles: TileSemantics
    pattern: AccessPattern
    sharing: SharingType | None = None
    priority: int = 0


def tile_counts(extent: Triple, tile: Triple) -> Triple:
    """Boxes of shape ``tile`` along each axis of ``extent`` (ceiling
    division: an edge box may be clipped)."""
    return (-(-extent[0] // tile[0]), -(-extent[1] // tile[1]), -(-extent[2] // tile[2]))


def dtile_count(desc: LocalityDescriptor) -> Triple:
    """Number of D-tiles along each axis of the data structure."""
    return tile_counts(desc.data.dims, desc.tiles.dtile_dims)


def ctile_count(desc: LocalityDescriptor, grid: "CtaGrid") -> Triple:
    """Number of C-tiles along each axis of the grid."""
    return tile_counts(grid.dims, desc.tiles.ctile_dims)


def _validate_map(desc: LocalityDescriptor, grid: "CtaGrid") -> None:
    ranks = desc.tiles.compute_data_map
    nonzero = [r for r in ranks if r != 0]
    if not nonzero:
        raise InvalidTileSemantics(
            f"{desc.data.name}: compute-data map {ranks} ranks no axis"
        )
    if sorted(nonzero) != list(range(1, len(nonzero) + 1)) or any(
        r < 0 for r in ranks
    ):
        raise InvalidTileSemantics(
            f"{desc.data.name}: compute-data map {ranks} is not a ranking"
        )
    counts = ctile_count(desc, grid)
    for axis, rank in enumerate(ranks):
        if rank == 0 and counts[axis] != 1:
            raise InvalidTileSemantics(
                f"{desc.data.name}: axis {'XYZ'[axis]} is unranked but has "
                f"{counts[axis]} C-tiles"
            )


def validate_descriptor(desc: LocalityDescriptor, grid: "CtaGrid") -> None:
    """Check one descriptor's structural invariants against a grid."""
    ds = desc.data
    if ds.elem_size <= 0 or ds.total_bytes <= 0 or min(ds.dims) < 1:
        raise InvalidTileSemantics(f"{ds.name}: empty or negative extent")
    if ds.base_addr % PAGE_SIZE != 0:
        raise MisalignedBase(
            f"{ds.name}: base {ds.base_addr:#x} not {PAGE_SIZE}-byte aligned"
        )
    t = desc.tiles
    if min(t.dtile_dims) < 1 or min(t.ctile_dims) < 1:
        raise InvalidTileSemantics(f"{ds.name}: tile dims must be >= 1")
    if any(t.dtile_dims[i] > ds.dims[i] for i in range(3)):
        raise InvalidTileSemantics(f"{ds.name}: D-tile exceeds data dims")
    if any(t.ctile_dims[i] > grid.dims[i] for i in range(3)):
        raise InvalidTileSemantics(f"{ds.name}: C-tile exceeds grid dims")
    if (desc.sharing is not None) != (desc.ltype is LocalityType.INTER_THREAD):
        raise InvalidTileSemantics(
            f"{ds.name}: sharing type present iff locality is INTER_THREAD"
        )
    if desc.pattern.regular:
        if desc.pattern.stride_bytes <= 0:
            raise InvalidTileSemantics(f"{ds.name}: REGULAR stride must be > 0")
        if desc.pattern.stride_bytes % ds.elem_size != 0:
            raise InvalidTileSemantics(
                f"{ds.name}: stride {desc.pattern.stride_bytes} not a multiple "
                f"of element size {ds.elem_size}"
            )
    if desc.priority < 0:
        raise InvalidTileSemantics(f"{ds.name}: priority must be >= 0")
    _validate_map(desc, grid)
    n_dtiles = math.prod(dtile_count(desc))
    n_ctiles = math.prod(ctile_count(desc, grid))
    if n_dtiles != n_ctiles:
        raise InvalidTileSemantics(
            f"{ds.name}: {n_dtiles} D-tiles vs {n_ctiles} C-tiles "
            "(1:1 mapping violated)"
        )


def _ranges_overlap(a: DataStructureRef, b: DataStructureRef) -> bool:
    return a.base_addr < b.end_addr and b.base_addr < a.end_addr


def validate_descriptor_set(
    descs: list[LocalityDescriptor], grid: "CtaGrid"
) -> list[LocalityDescriptor]:
    """Validate a descriptor set and return it sorted by priority (0 first).

    Raises InvalidTileSemantics / MisalignedBase per descriptor, and
    OverlapConflict when two descriptors over overlapping byte ranges carry
    the same priority. Same-priority descriptors over disjoint ranges are
    independent and allowed.
    """
    if not descs:
        raise InvalidTileSemantics("descriptor set is empty")
    if min(grid.dims) < 1:
        raise InvalidTileSemantics(f"grid dims {grid.dims} must be >= 1")
    for desc in descs:
        validate_descriptor(desc, grid)
    for i, a in enumerate(descs):
        for b in descs[i + 1 :]:
            if a.priority == b.priority and _ranges_overlap(a.data, b.data):
                raise OverlapConflict(
                    f"{a.data.name} and {b.data.name} overlap at priority "
                    f"{a.priority}"
                )
    return sorted(descs, key=lambda d: d.priority)


def log2_exact(n: int) -> int:
    """log2 of a power of two; raises on anything else."""
    if n <= 0:
        raise ValueError(f"{n} is not a power of two")
    b = int(math.log2(n))
    if 2**b != n:
        raise ValueError(f"{n} is not a power of two")
    return b
