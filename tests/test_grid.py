"""Tile indexing, traversal mapping and byte-run decomposition."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldesc_sim import (
    CtaGrid,
    TileTable,
    ctile_of_cta,
    dtile_byte_runs,
    dtile_of_ctile,
    validate_descriptor_set,
)
from ldesc_sim.descriptor import PAGE_SIZE, ctile_count, dtile_count
from ldesc_sim.errors import OutOfGrid, OutOfRange
from ldesc_sim.grid import (
    DtileGeometry,
    TileIndex,
    box_ctas,
    cta_flat,
    dtile_of_address,
    unflatten_xyz,
)

from conftest import make_desc


def test_ctile_of_cta_column():
    desc = make_desc(ctile=(1, 8, 1))
    grid = CtaGrid((16, 8, 1))
    assert ctile_of_cta((5, 3, 0), desc, grid).coords == (5, 0, 0)


def test_ctile_of_cta_origin(histo_desc, histo_grid):
    assert ctile_of_cta((0, 0, 0), histo_desc, histo_grid).coords == (0, 0, 0)


def test_ctile_of_cta_block():
    desc = make_desc(
        data_dims=(4, 1, 1), dtile=(1, 1, 1), ctile=(4, 4, 1), cdmap=(1, 2, 3)
    )
    grid = CtaGrid((8, 8, 1))
    assert ctile_of_cta((7, 7, 0), desc, grid).coords == (1, 1, 0)


def test_ctile_of_cta_out_of_grid(histo_desc, histo_grid):
    with pytest.raises(OutOfGrid):
        ctile_of_cta((5, 0, 0), histo_desc, histo_grid)


def test_map_1d_is_identity_along_x():
    desc = make_desc(
        data_dims=(16 * 256, 1, 1), dtile=(256, 1, 1), ctile=(1, 8, 1), cdmap=(1, 0, 0)
    )
    grid = CtaGrid((16, 8, 1))
    got = dtile_of_ctile(TileIndex((5, 0, 0), 5), desc, grid)
    assert got.coords == (5, 0, 0) and got.flat == 5


def test_identity_permutation_matches_flat():
    desc = make_desc(
        data_dims=(12, 1, 1),
        dtile=(1, 1, 1),
        ctile=(1, 1, 1),
        cdmap=(1, 2, 3),
    )
    grid = CtaGrid((3, 2, 2))
    for k in range(12):
        ctile = TileIndex(unflatten_xyz(k, (3, 2, 2)), k)
        assert dtile_of_ctile(ctile, desc, grid).flat == k


def test_map_312_traverses_y_first():
    # C enumeration order Y -> Z -> X; ctile (1,0,0) is the 4th in that
    # order, so it pairs with D-tile flat 4 = coords (0,0,1).
    desc = make_desc(
        data_dims=(2, 2, 2),
        dtile=(1, 1, 1),
        ctile=(1, 1, 1),
        cdmap=(3, 1, 2),
    )
    grid = CtaGrid((2, 2, 2))
    got = dtile_of_ctile(TileIndex((1, 0, 0), 1), desc, grid)
    assert got.flat == 4 and got.coords == (0, 0, 1)


def test_map_312_brute_force_order():
    # Enumerate all 8 C-tiles by hand in Y->Z->X order and compare.
    desc = make_desc(
        data_dims=(2, 2, 2), dtile=(1, 1, 1), ctile=(1, 1, 1), cdmap=(3, 1, 2)
    )
    grid = CtaGrid((2, 2, 2))
    order = [(x, y, z) for x in range(2) for z in range(2) for y in range(2)]
    for k, coords in enumerate(order):
        assert dtile_of_ctile(TileIndex(coords, 0), desc, grid).flat == k


def test_dtile_of_ctile_out_of_range(histo_desc, histo_grid):
    with pytest.raises(OutOfRange):
        dtile_of_ctile(TileIndex((5, 0, 0), 5), histo_desc, histo_grid)


def _mapping_bijective(desc, grid):
    counts = [
        -(-grid.dims[i] // desc.tiles.ctile_dims[i]) for i in range(3)
    ]
    total = counts[0] * counts[1] * counts[2]
    seen = set()
    for k in range(total):
        ctile = TileIndex(unflatten_xyz(k, tuple(counts)), k)
        seen.add(dtile_of_ctile(ctile, desc, grid).flat)
    return seen == set(range(total))


def test_mapping_bijection_small_spaces():
    for dims in itertools.product(range(1, 5), repeat=3):
        for ranks in itertools.permutations((1, 2, 3)):
            total = dims[0] * dims[1] * dims[2]
            desc = make_desc(
                data_dims=(total, 1, 1),
                dtile=(1, 1, 1),
                ctile=(1, 1, 1),
                cdmap=ranks,
            )
            assert _mapping_bijective(desc, CtaGrid(dims)), (dims, ranks)


def test_byte_runs_1d_example():
    # Arithmetic oracle: start = base + ix*dx*elem = 1*256*4, len = dx*elem.
    desc = make_desc(data_dims=(1024, 1, 1), dtile=(256, 1, 1), ctile=(1, 4, 1))
    runs = dtile_byte_runs(TileIndex((1, 0, 0), 1), desc)
    assert len(runs) == 1
    assert runs[0].start == desc.data.base_addr + 1024
    assert runs[0].length == 1024


def test_byte_runs_full_cover():
    desc = make_desc(
        data_dims=(8, 4, 2), elem=2, dtile=(8, 4, 2), ctile=(5, 8, 1)
    )
    runs = dtile_byte_runs(TileIndex((0, 0, 0), 0), desc)
    assert len(runs) == 4 * 2  # one per (y, z) line
    assert sum(r.length for r in runs) == desc.data.total_bytes


def test_byte_runs_edge_tile():
    desc = make_desc(
        data_dims=(20, 1, 1), elem=1, dtile=(8, 1, 1), ctile=(2, 1, 1),
        cdmap=(1, 0, 0), pattern=None,
    )
    runs = dtile_byte_runs(TileIndex((2, 0, 0), 2), desc)
    assert [r.length for r in runs] == [4]  # min(8, 20 - 16)


def test_byte_runs_partition_structure():
    rng = random.Random(3)
    for _ in range(50):
        dims = (rng.randint(1, 10), rng.randint(1, 5), rng.randint(1, 3))
        dtile = tuple(rng.randint(1, dims[i]) for i in range(3))
        desc = make_desc(
            data_dims=dims, elem=rng.choice([1, 2, 4]), dtile=dtile,
            ctile=(1, 1, 1), cdmap=(1, 2, 3),
        )
        counts = dtile_count(desc)
        covered = set()
        for k in range(counts[0] * counts[1] * counts[2]):
            tile = TileIndex(unflatten_xyz(k, counts), k)
            for run in dtile_byte_runs(tile, desc):
                span = set(range(run.start, run.start + run.length))
                assert not span & covered, "byte covered twice"
                covered |= span
        ds = desc.data
        assert covered == set(range(ds.base_addr, ds.end_addr))


def test_ctiles_partition_the_grid():
    rng = random.Random(21)
    for _ in range(40):
        dims = (rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 2))
        grid = CtaGrid(dims)
        ctile = tuple(rng.randint(1, dims[i]) for i in range(3))
        counts = tuple(-(-dims[i] // ctile[i]) for i in range(3))
        n_ct = counts[0] * counts[1] * counts[2]
        desc = make_desc(
            data_dims=(n_ct, 1, 1), dtile=(1, 1, 1), ctile=ctile, cdmap=(1, 2, 3)
        )
        seen = []
        for k in range(n_ct):
            members = box_ctas(unflatten_xyz(k, counts), ctile, grid)
            assert members, "every C-tile holds at least one CTA"
            for flat in members:
                assert ctile_of_cta(unflatten_xyz(flat, dims), desc, grid).flat == k
            seen.extend(members)
        assert sorted(seen) == list(range(grid.total_ctas))


def test_every_address_in_exactly_one_dtile(histo_desc):
    rng = random.Random(11)
    ds = histo_desc.data
    for _ in range(100):
        addr = rng.randrange(ds.base_addr, ds.end_addr)
        tile = dtile_of_address(addr, histo_desc)
        runs = dtile_byte_runs(tile, histo_desc)
        assert any(r.start <= addr < r.start + r.length for r in runs)


@st.composite
def descriptor_and_grid(draw):
    """A valid descriptor over a random grid: C-tiles may clip at the grid's
    edge, D-tiles at the data's edge, and unranked axes hold one C-tile."""
    dims = tuple(draw(st.integers(1, hi)) for hi in (6, 4, 3))
    ctile = tuple(draw(st.integers(1, g)) for g in dims)
    grid = CtaGrid(dims)
    counts = tuple(-(-dims[i] // ctile[i]) for i in range(3))
    ranked = [a for a in range(3) if counts[a] > 1 or draw(st.booleans())] or [0]
    order = draw(st.permutations(ranked))
    cdmap = tuple(order.index(a) + 1 if a in order else 0 for a in range(3))
    n = counts[0] * counts[1] * counts[2]
    dcounts = draw(st.sampled_from([(n, 1, 1), (1, n, 1), counts, counts[::-1]]))
    dtile = tuple(draw(st.integers(1, 4)) for _ in range(3))
    data_dims = tuple(
        draw(st.integers((m - 1) * d + 1, m * d)) if m > 1 else d
        for m, d in zip(dcounts, dtile)
    )
    desc = make_desc(
        base=draw(st.integers(0, 3)) * PAGE_SIZE,
        elem=draw(st.sampled_from([1, 2, 4, 8])),
        data_dims=data_dims,
        dtile=dtile,
        ctile=ctile,
        cdmap=cdmap,
    )
    return validate_descriptor_set([desc], grid)[0], grid


@settings(max_examples=80, deadline=None)
@given(descriptor_and_grid())
def test_tile_table_matches_per_cta_functions(case):
    desc, grid = case
    table = TileTable(desc, grid)
    counts = ctile_count(desc, grid)
    assert len(table.ctas) == counts[0] * counts[1] * counts[2]
    assert len(table.slot) == grid.total_ctas
    # Each C-tile's members, from ctile_of_cta over every CTA in X->Y->Z order.
    gx, gy, gz = grid.dims
    ctas = [(x, y, z) for z, y, x in itertools.product(range(gz), range(gy), range(gx))]
    members: dict[int, list[int]] = {}
    for cta in ctas:
        members.setdefault(ctile_of_cta(cta, desc, grid).flat, []).append(cta_flat(cta, grid))
    for cta in ctas:
        ctile = ctile_of_cta(cta, desc, grid)
        dtile = dtile_of_ctile(ctile, desc, grid)
        k, rank = table.slot[cta_flat(cta, grid)]
        assert (k, rank) == (ctile.flat, members[k].index(cta_flat(cta, grid)))
        assert table.ctas[k] == members[k]
        assert table.dtiles[k] == dtile
        assert table.runs[k] == dtile_byte_runs(dtile, desc)


@settings(max_examples=80, deadline=None)
@given(descriptor_and_grid(), st.lists(st.floats(0, 1, exclude_max=True), max_size=20))
def test_dtile_geometry_matches_dtile_of_address(case, fractions):
    desc, _ = case
    ds = desc.data
    geometry = DtileGeometry(desc)
    assert (geometry.base, geometry.end) == (ds.base_addr, ds.end_addr)
    size = ds.end_addr - ds.base_addr
    # the first and last byte, so that both corner D-tiles, clipped or not, are hit
    offsets = {0, size - 1} | {int(f * size) for f in fractions}
    for addr in (ds.base_addr + o for o in offsets):
        assert geometry.flat_of(addr) == dtile_of_address(addr, desc).flat
