"""Unit tests for the uniform grid index."""

import random

import numpy as np
import pytest

from repro.spatial.grid import UniformGrid
from repro.spatial.point import BBox, LocationTable, euclidean
from repro.utils.validation import COORDINATE_BOUND


def make_locations(points):
    table = LocationTable.empty(len(points))
    for user, (x, y) in enumerate(points):
        table.set(user, x, y)
    return table


UNIT = BBox(0.0, 0.0, 1.0, 1.0)


def inserted(grid, locations):
    """The cells of placing every located user of ``locations`` by
    ``grid.cell_of``, one by one in id order."""
    cells = {}
    for user in locations.located_users():
        cells.setdefault(grid.cell_of(*locations.get(user)), []).append(user)
    return cells


def listed(grid):
    """The grid's cells in order, each as a list of its members; every
    cell is an ascending ``intp`` id-array."""
    for ids in grid.cells.values():
        assert ids.dtype == np.intp and (np.diff(ids) > 0).all()
    return [(cell, ids.tolist()) for cell, ids in grid.cells.items()]


def cell_holding(grid, user):
    """The cell whose members list ``user``."""
    return next(cell for cell, users in grid.cells.items() if user in users)


@pytest.mark.parametrize("resolution", [1, 7, 100])
def test_build_equals_inserting_every_located_user_in_id_order(resolution):
    """The vectorised build: same cells, in-cell order and cell order
    as placing one located user at a time, and a count of them all."""
    from repro import gowalla_like

    locations = gowalla_like(n=3000, seed=7).locations
    built = UniformGrid.build(locations, resolution)
    cells = inserted(UniformGrid(locations.bbox(), resolution), locations)
    assert listed(built) == list(cells.items())
    assert len(built) == locations.n_located


def test_build_over_no_located_user_is_empty():
    grid = UniformGrid.build(LocationTable.empty(5), 4)
    assert len(grid) == 0 and not grid.cells
    assert grid.bbox == BBox(0.0, 0.0, 0.0, 0.0)


def test_a_box_at_the_coordinate_bound_keeps_finite_cells():
    """Points at ±1e308 used to make ``maxx - minx`` overflow to inf,
    and the grid grew halving guards for it.  The input domain keeps
    every coordinate within ±2**500, so a box at the bound spans a
    finite 2**501 and the plain arithmetic holds: finite cells, no
    warning, and a build equal to inserting one by one."""
    import warnings

    bound = COORDINATE_BOUND
    points = [(-bound, 0.5), (0.25, 0.5), (bound, 0.5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        built = UniformGrid.build(make_locations(points), 4)
    assert built.cell_w == 2.0**499
    assert [built.cell_of(x, y) for x, y in points] == [(0, 0), (2, 0), (3, 0)]
    cells = inserted(UniformGrid(built.bbox, 4), make_locations(points))
    assert listed(built) == list(cells.items())
    for user, (x, y) in enumerate(points):
        assert built.cell_bbox(*cell_holding(built, user)).contains(x, y)


def test_a_subnormal_box_clamps_a_far_insert_without_a_warning():
    """Over users a few subnormals apart the cells are subnormal: a
    point at the coordinate bound divides out to ``inf`` cells in
    ``cell_of`` and is clamped to the border cell, and the build's
    column offsets stay finite."""
    import warnings

    points = [(0.0, 0.0), (2.0**-1070, 2.0**-1072), (0.0, 2.0**-1070)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = UniformGrid.build(make_locations(points), 4)
        assert 0.0 < grid.cell_w < 2.0**-1022
        assert grid.cell_of(COORDINATE_BOUND, -COORDINATE_BOUND) == (3, 0)
    assert cell_holding(grid, 1) == (3, 1)


class TestGeometry:
    def test_cell_of_maps_interior_points(self):
        grid = UniformGrid(UNIT, 4)
        assert grid.cell_of(0.1, 0.1) == (0, 0)
        assert grid.cell_of(0.9, 0.9) == (3, 3)
        assert grid.cell_of(0.30, 0.80) == (1, 3)

    def test_cell_of_clamps_outside_points(self):
        grid = UniformGrid(UNIT, 4)
        assert grid.cell_of(-5.0, 0.5) == (0, 2)
        assert grid.cell_of(2.0, 2.0) == (3, 3)

    def test_max_coordinate_lands_in_last_cell(self):
        grid = UniformGrid(UNIT, 4)
        assert grid.cell_of(1.0, 1.0) == (3, 3)

    def test_cell_bbox_tiles_the_domain(self):
        grid = UniformGrid(UNIT, 2)
        box = grid.cell_bbox(1, 0)
        assert (box.minx, box.miny, box.maxx, box.maxy) == (0.5, 0.0, 1.0, 0.5)

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            UniformGrid(UNIT, 0)

    def test_degenerate_bbox_does_not_crash(self):
        grid = UniformGrid(BBox(0.5, 0.5, 0.5, 0.5), 3)
        assert grid.cell_of(0.5, 0.5) == (0, 0)


class TestContents:
    def test_empty_cells_not_materialised(self):
        grid = UniformGrid.build(make_locations([(0.0, 0.0), (0.05, 0.05), (1.0, 1.0)]), 10)
        assert len(grid.cells) == 2

    def test_build_indexes_only_located_users(self):
        table = LocationTable.empty(3)
        table.set(0, 0.2, 0.2)
        table.set(2, 0.8, 0.8)
        grid = UniformGrid.build(table, 4)
        assert len(grid) == 2
        assert sorted(u for users in grid.cells.values() for u in users) == [0, 2]


class TestRings:
    def test_ring_zero_is_center(self):
        grid = UniformGrid.build(make_locations([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]), 5)
        center = grid.cell_of(0.5, 0.5)
        assert list(grid.ring_cells(center, 0)) == [center]

    def test_rings_partition_all_nonempty_cells(self):
        rng = random.Random(3)
        table = make_locations([(rng.random(), rng.random()) for _ in range(200)])
        grid = UniformGrid.build(table, 8)
        center = grid.cell_of(0.5, 0.5)
        seen = set()
        for r in range(grid.max_ring_radius(center) + 1):
            for cell in grid.ring_cells(center, r):
                assert cell not in seen, "cell reported by two rings"
                seen.add(cell)
        assert seen == set(grid.cells)

    def test_ring_cells_have_exact_chebyshev_distance(self):
        rng = random.Random(4)
        table = make_locations([(rng.random(), rng.random()) for _ in range(150)])
        grid = UniformGrid.build(table, 6)
        center = (2, 3)
        for r in range(1, 4):
            for ix, iy in grid.ring_cells(center, r):
                assert max(abs(ix - center[0]), abs(iy - center[1])) == r

    def test_ring_lower_bound_is_valid(self):
        """Every cell at ring r must be at least ring_lower_bound(r) away
        from any point in the center cell."""
        grid = UniformGrid.build(make_locations([(0.05 * i, 0.05 * i) for i in range(20)]), 10)
        qx, qy = 0.51, 0.47
        center = grid.cell_of(qx, qy)
        for r in range(1, grid.max_ring_radius(center) + 1):
            lb = grid.ring_lower_bound(r)
            for ix, iy in grid.ring_cells(center, r):
                assert grid.cell_mindist(ix, iy, qx, qy) >= lb - 1e-12

    def test_cell_mindist_lower_bounds_members(self):
        rng = random.Random(5)
        points = [(rng.random(), rng.random()) for _ in range(300)]
        table = make_locations(points)
        grid = UniformGrid.build(table, 7)
        qx, qy = 0.3, 0.6
        for (ix, iy), users in grid.cells.items():
            bound = grid.cell_mindist(ix, iy, qx, qy)
            for u in users:
                assert euclidean(*table.get(u), qx, qy) >= bound - 1e-12

    def test_cell_mindist_safe_for_clamped_out_of_box_users(self):
        """A point outside the grid's box is clamped into a border
        cell; that cell's bound stays valid for in-box queries."""
        grid = UniformGrid.build(make_locations([(0.0, 0.0), (1.0, 1.0)]), 4)
        ix, iy = grid.cell_of(1.7, 0.5)  # physically outside the unit box
        assert (ix, iy) == (3, 2)
        qx, qy = 0.1, 0.5
        assert grid.cell_mindist(ix, iy, qx, qy) <= euclidean(1.7, 0.5, qx, qy) + 1e-12
