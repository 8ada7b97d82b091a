"""Unit tests for the uniform grid index."""

import math
import random

import pytest

from repro.spatial.grid import UniformGrid
from repro.spatial.point import BBox, LocationTable


def make_locations(points):
    table = LocationTable.empty(len(points))
    for user, (x, y) in enumerate(points):
        table.set(user, x, y)
    return table


UNIT = BBox(0.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("resolution", [1, 7, 100])
def test_build_equals_inserting_every_located_user_in_id_order(resolution):
    """The vectorised build: same cells, in-cell order, cell order and
    user -> cell map as one ``insert`` per located user."""
    from repro import gowalla_like

    locations = gowalla_like(n=3000, seed=7).locations
    built = UniformGrid.build(locations, resolution)
    inserted = UniformGrid(locations.bbox(), resolution)
    for user in locations.located_users():
        inserted.insert(user, *locations.get(user))
    assert list(built.cells.items()) == list(inserted.cells.items())
    assert list(built._cell_of_user.items()) == list(inserted._cell_of_user.items())


def test_build_over_no_located_user_is_empty_and_takes_inserts():
    grid = UniformGrid.build(LocationTable.empty(5), 4)
    assert len(grid) == 0 and not grid.cells
    grid.insert(2, 0.3, 0.6)
    assert 2 in grid and grid.users_in(*grid.cell_of_user(2)) == [2]


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
    def test_insert_remove_roundtrip(self):
        grid = UniformGrid(UNIT, 4)
        cell = grid.insert(7, 0.1, 0.1)
        assert 7 in grid
        assert grid.users_in(*cell) == [7]
        assert grid.remove(7) == cell
        assert 7 not in grid
        assert grid.users_in(*cell) == []

    def test_double_insert_rejected(self):
        grid = UniformGrid(UNIT, 4)
        grid.insert(1, 0.1, 0.1)
        with pytest.raises(ValueError):
            grid.insert(1, 0.2, 0.2)

    def test_move_between_cells(self):
        grid = UniformGrid(UNIT, 4)
        grid.insert(1, 0.1, 0.1)
        old, new = grid.move(1, 0.9, 0.9)
        assert old == (0, 0)
        assert new == (3, 3)
        assert grid.cell_of_user(1) == (3, 3)

    def test_move_within_cell_is_noop(self):
        grid = UniformGrid(UNIT, 4)
        grid.insert(1, 0.10, 0.10)
        old, new = grid.move(1, 0.12, 0.12)
        assert old == new == (0, 0)

    def test_empty_cells_not_materialised(self):
        grid = UniformGrid(UNIT, 10)
        grid.insert(1, 0.05, 0.05)
        assert len(list(grid.nonempty_cells())) == 1

    def test_build_indexes_only_located_users(self):
        table = LocationTable.empty(3)
        table.set(0, 0.2, 0.2)
        table.set(2, 0.8, 0.8)
        grid = UniformGrid.build(table, 4)
        assert len(grid) == 2
        assert 1 not in grid


class TestRings:
    def test_ring_zero_is_center(self):
        grid = UniformGrid(UNIT, 5)
        grid.insert(1, 0.5, 0.5)
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
        assert seen == set(grid.nonempty_cells())

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
        grid = UniformGrid(UNIT, 10)
        for user, (x, y) in enumerate([(0.05 * i, 0.05 * i) for i in range(20)]):
            grid.insert(user, min(x, 0.999), min(y, 0.999))
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
                assert table.distance_to(u, qx, qy) >= bound - 1e-12

    def test_cell_mindist_safe_for_clamped_out_of_box_users(self):
        """Users moved outside the construction bbox are clamped into
        border cells; bounds must stay valid for in-box queries."""
        table = make_locations([(0.5, 0.5), (0.6, 0.6)])
        grid = UniformGrid.build(table, 4)
        table.set(1, 1.7, 0.5)  # physically outside the unit box
        grid.move(1, 1.7, 0.5)
        ix, iy = grid.cell_of_user(1)
        qx, qy = 0.1, 0.5
        assert grid.cell_mindist(ix, iy, qx, qy) <= table.distance_to(1, qx, qy) + 1e-12
