"""Cluster formation (against a pseudocode transcription oracle) and baselines."""

import itertools
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ldesc_sim import (
    CtaGrid,
    assign_clusters,
    assign_clusters_by_zone,
    baseline_bcs,
    baseline_round_robin,
    form_clusters,
)
from ldesc_sim.descriptor import tile_counts
from ldesc_sim.grid import box_ctas, cta_flat, unflatten_xyz
from ldesc_sim.numa import distributed_schedule
from ldesc_sim.sched import ClusterDims

from conftest import make_desc


def alg1_reference(ctile_dims_list, grid_dims, sm_num):
    """Literal transcription of the cluster-forming pseudocode.

    Step 1: while a descriptor has fewer C-tiles than SMs and its dims are
    not (1,1,1), halve the largest dimension (ceiling, X-first ties).
    Step 2: start from the top descriptor's dims; for each other descriptor
    merge along each axis and adopt the merge only if enough clusters
    remain for all SMs.
    """

    def ct_num(dims):
        return math.prod(math.ceil(g / d) for g, d in zip(grid_dims, dims))

    work = [list(c) for c in ctile_dims_list]
    for dims in work:
        while ct_num(dims) < sm_num and dims != [1, 1, 1]:
            largest = max(dims)
            axis = dims.index(largest)
            dims[axis] = math.ceil(dims[axis] / 2)
    cls = list(work[0])
    for i in range(1, len(work)):
        mcls = [cls[d] * max(work[i][d] // cls[d], 1) for d in range(3)]
        if ct_num(mcls) >= sm_num:
            cls = mcls
    return tuple(cls)


def _descs_for(ctiles):
    # Cluster formation reads only the C-tile dims; fabricate the rest.
    return [
        make_desc(name=f"d{i}", base=i << 20, ctile=c, cdmap=(1, 2, 3), priority=i)
        for i, c in enumerate(ctiles)
    ]


def test_no_split_when_enough_ctiles():
    grid = CtaGrid((16, 8, 1))
    cls = form_clusters(_descs_for([(1, 8, 1)]), grid, 15)
    assert cls.dims == (1, 8, 1)
    assert cls.total_in(grid) == 16


def test_split_y_once_for_more_sms():
    grid = CtaGrid((16, 8, 1))
    cls = form_clusters(_descs_for([(1, 8, 1)]), grid, 32)
    assert cls.dims == (1, 4, 1)
    assert cls.total_in(grid) == 32


def test_split_and_merge_two_descriptors():
    grid = CtaGrid((8, 4, 1))
    cls = form_clusters(_descs_for([(2, 1, 1), (4, 4, 1)]), grid, 4)
    # The second descriptor splits (4,4,1)->(2,4,1) (X-first tie), then the
    # merge is adopted because the grid still yields 4 clusters.
    assert cls.dims == (2, 4, 1)


def test_form_clusters_matches_reference_single():
    for gx, gy, gz in itertools.product(range(1, 7), range(1, 7), range(1, 3)):
        grid = CtaGrid((gx, gy, gz))
        divisors = lambda n: [d for d in range(1, n + 1) if n % d == 0]
        for ct in itertools.product(divisors(gx), divisors(gy), divisors(gz)):
            for sm in range(1, 9):
                got = form_clusters(_descs_for([ct]), grid, sm).dims
                assert got == alg1_reference([ct], (gx, gy, gz), sm)


def test_form_clusters_matches_reference_pairs():
    rng = random.Random(5)
    for _ in range(300):
        gx, gy = rng.randint(1, 6), rng.randint(1, 6)
        grid = CtaGrid((gx, gy, 1))
        cts = [
            (rng.randint(1, gx), rng.randint(1, gy), 1),
            (rng.randint(1, gx), rng.randint(1, gy), 1),
        ]
        sm = rng.randint(1, 8)
        got = form_clusters(_descs_for(cts), grid, sm).dims
        assert got == alg1_reference(cts, (gx, gy, 1), sm)


def test_enough_clusters_unless_fully_split():
    rng = random.Random(9)
    for _ in range(200):
        gx, gy = rng.randint(1, 8), rng.randint(1, 8)
        grid = CtaGrid((gx, gy, 1))
        ct = (rng.randint(1, gx), rng.randint(1, gy), 1)
        sm = rng.randint(1, 8)
        cls = form_clusters(_descs_for([ct]), grid, sm)
        assert cls.total_in(grid) >= sm or cls.dims == (1, 1, 1)


def test_single_descriptor_with_enough_ctiles_unchanged():
    grid = CtaGrid((6, 6, 1))
    desc = _descs_for([(2, 3, 1)])
    assert form_clusters(desc, grid, 6).dims == (2, 3, 1)
    assert desc[0].tiles.ctile_dims == (2, 3, 1)  # input not mutated


def test_assign_round_robin_five_clusters():
    grid = CtaGrid((5, 1, 1))
    sched = assign_clusters(ClusterDims((1, 1, 1)), grid, 4)
    assert [sched.assignment[c] for c in range(5)] == [0, 1, 2, 3, 0]


def test_assign_single_cluster_all_sm0():
    grid = CtaGrid((4, 2, 1))
    sched = assign_clusters(ClusterDims((4, 2, 1)), grid, 4)
    assert set(sched.assignment.values()) == {0}


def test_assign_histo_clusters_sm0(histo_grid):
    sched = assign_clusters(ClusterDims((1, 8, 1)), histo_grid, 4)
    sm0_cols = {c % 5 for c in sched.ctas_of_sm(0)}
    assert sm0_cols == {0, 4}


def test_assign_load_balance():
    # Round-robin by cluster index balances within one cluster population
    # whenever clusters tile the grid evenly (clipped edge clusters can
    # legitimately widen the spread, so sample divisor shapes).
    rng = random.Random(2)
    for _ in range(100):
        gx, gy = rng.randint(1, 8), rng.randint(1, 8)
        grid = CtaGrid((gx, gy, 1))
        cx = rng.choice([d for d in range(1, gx + 1) if gx % d == 0])
        cy = rng.choice([d for d in range(1, gy + 1) if gy % d == 0])
        cls = ClusterDims((cx, cy, 1))
        sm = rng.randint(1, 6)
        sched = assign_clusters(cls, grid, sm)
        per_sm = [len(sched.ctas_of_sm(s)) for s in range(sm)]
        assert max(per_sm) - min(per_sm) <= cx * cy


def test_round_robin_identity():
    sched = baseline_round_robin(CtaGrid((4, 1, 1)), 4)
    assert all(sched.assignment[i] == i for i in range(4))


def test_round_robin_modular(histo_grid):
    sched = baseline_round_robin(histo_grid, 4)
    assert sched.ctas_of_sm(0) == list(range(0, 40, 4))


def test_round_robin_single_sm():
    sched = baseline_round_robin(CtaGrid((3, 3, 1)), 1)
    assert set(sched.assignment.values()) == {0}


def test_bcs_pairs():
    sched = baseline_bcs(CtaGrid((8, 1, 1)), 2)
    assert sched.ctas_of_sm(0) == [0, 1, 4, 5]


def test_bcs_two_ctas_together():
    sched = baseline_bcs(CtaGrid((2, 1, 1)), 3)
    assert sched.assignment == {0: 0, 1: 0}


def test_bcs_odd_count():
    sched = baseline_bcs(CtaGrid((5, 1, 1)), 2)
    assert sched.assignment[4] == 0  # pair index 2 mod 2


@st.composite
def box_schedule_case(draw):
    """A grid up to 6x6x2, a cluster shape, a zone map and an SM count."""
    dims = tuple(draw(st.integers(1, hi)) for hi in (6, 6, 2))
    cls = ClusterDims(tuple(draw(st.integers(1, g)) for g in dims))
    zone_count = draw(st.sampled_from([1, 2, 4]))
    sm_count = zone_count * draw(st.integers(1, 4))
    n = dims[0] * dims[1] * dims[2]
    zones = draw(st.lists(st.integers(0, zone_count - 1), min_size=n, max_size=n))
    return CtaGrid(dims), cls, dict(enumerate(zones)), sm_count, zone_count


@settings(max_examples=60, deadline=None)
@given(box_schedule_case())
def test_box_schedules_match_the_code_they_replaced(case):
    grid, cls, zones, sm_count, zone_count = case
    counts = tile_counts(grid.dims, cls.dims)
    ctile = make_desc(ctile=cls.dims)  # ctas_in_ctile reads only the C-tile dims
    for k in range(math.prod(counts)):
        box = unflatten_xyz(k, counts)
        members = box_ctas(box, cls.dims, grid)
        assert members == oracles._cluster_members(box, cls, grid)
        assert members == [cta_flat(c, grid) for c in oracles.ctas_in_ctile(box, ctile, grid)]
    assert assign_clusters(cls, grid, sm_count).assignment == oracles.assign_clusters(
        cls, grid, sm_count
    )
    got = assign_clusters_by_zone(cls, grid, zones, sm_count, zone_count)
    assert got.assignment == oracles.assign_clusters_by_zone(
        cls, grid, zones, sm_count, zone_count
    )
    assert distributed_schedule(grid, zone_count, sm_count).assignment == (
        oracles.distributed_schedule(grid, zone_count, sm_count)
    )
