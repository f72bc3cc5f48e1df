"""CTA cluster formation and the scheduling baselines.

Cluster formation works on priority-ordered descriptors: C-tiles are split
in half along their largest axis until every descriptor offers at least one
C-tile per SM, then lower-priority C-tiles are merged into the top
descriptor's cluster shape whenever the grid still yields enough clusters
to occupy all SMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .descriptor import LocalityDescriptor, Triple, tile_counts
from .grid import CtaGrid, box_ctas, unflatten_xyz


@dataclass(frozen=True)
class ClusterDims:
    """CTAs per cluster along each grid axis."""

    dims: Triple

    def total_in(self, grid: CtaGrid) -> int:
        return _ct_num(grid, self.dims)


@dataclass
class Schedule:
    """CTA flat id -> SM id, for ``sm_count`` SMs."""

    assignment: dict[int, int]
    sm_count: int

    def ctas_of_sm(self, sm: int) -> list[int]:
        return sorted(c for c, s in self.assignment.items() if s == sm)


def _ct_num(grid: CtaGrid, dims: Triple | list[int]) -> int:
    return prod(tile_counts(grid.dims, dims))


def _split_largest(dims: list[int]) -> None:
    # Largest extent wins; ties break X before Y before Z via first index.
    axis = dims.index(max(dims))
    dims[axis] = -(-dims[axis] // 2)


def form_clusters(
    descs: list[LocalityDescriptor], grid: CtaGrid, sm_num: int
) -> ClusterDims:
    """Derive cluster dimensions from priority-ordered descriptors.

    Works on per-descriptor copies of the C-tile dims; the descriptors
    themselves stay untouched.
    """
    work = [list(d.tiles.ctile_dims) for d in descs]
    for dims in work:
        while _ct_num(grid, dims) < sm_num and dims != [1, 1, 1]:
            _split_largest(dims)
    cls = work[0]
    for dims in work[1:]:
        merged = [cls[i] * max(dims[i] // cls[i], 1) for i in range(3)]
        if _ct_num(grid, merged) >= sm_num:
            cls = merged
    return ClusterDims((cls[0], cls[1], cls[2]))


def majority_zone(
    ctas: list[int], cta_zones: dict[int, int] | list[int], zone_count: int
) -> int:
    """The zone most of ``ctas`` sit in under ``cta_zones``; ties go to the
    lowest zone id."""
    votes = [0] * zone_count
    for cta in ctas:
        votes[cta_zones[cta]] += 1
    return votes.index(max(votes))


def assign_clusters(cls: ClusterDims, grid: CtaGrid, sm_num: int) -> Schedule:
    """Round-robin whole clusters (X->Y->Z order) over the SMs."""
    return assign_clusters_by_zone(cls, grid, [0] * grid.total_ctas, sm_num, 1)


def assign_clusters_by_zone(
    cls: ClusterDims,
    grid: CtaGrid,
    cta_zones: dict[int, int] | list[int],
    sm_count: int,
    zone_count: int,
) -> Schedule:
    """Keep each cluster inside its zone's SMs.

    ``cta_zones[flat]`` is a CTA's zone. A cluster's zone is the majority
    zone of its CTAs (ties to the lowest zone id); clusters, in X->Y->Z
    order, are then round-robined over that zone's SM range.
    """
    sm_per_zone = sm_count // zone_count
    counts = tile_counts(grid.dims, cls.dims)
    next_slot = [0] * zone_count
    assignment: dict[int, int] = {}
    for k in range(prod(counts)):
        members = box_ctas(unflatten_xyz(k, counts), cls.dims, grid)
        zone = majority_zone(members, cta_zones, zone_count)
        sm = zone * sm_per_zone + next_slot[zone] % sm_per_zone
        next_slot[zone] += 1
        for cta in members:
            assignment[cta] = sm
    return Schedule(assignment, sm_count)


def baseline_round_robin(grid: CtaGrid, sm_num: int) -> Schedule:
    """Default scheduler: CTA k (X->Y->Z flat) lands on SM k mod sm_num."""
    return Schedule({flat: flat % sm_num for flat in range(grid.total_ctas)}, sm_num)


def baseline_bcs(grid: CtaGrid, sm_num: int) -> Schedule:
    """Pairwise scheduler: consecutive CTAs (2k, 2k+1) share SM k mod sm_num."""
    return Schedule(
        {flat: (flat // 2) % sm_num for flat in range(grid.total_ctas)}, sm_num
    )
