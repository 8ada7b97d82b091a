"""Tests for the two-level grid underlying the aggregate index."""

import random

import pytest

from repro.spatial.multigrid import MultiLevelGrid
from repro.spatial.point import BBox, LocationTable
from repro.utils.validation import COORDINATE_BOUND


def make_table(points):
    table = LocationTable.empty(len(points))
    for user, (x, y) in enumerate(points):
        table.set(user, x, y)
    return table


def test_leaf_resolution_is_s_squared():
    grid = MultiLevelGrid(BBox(0, 0, 1, 1), s=4)
    assert grid.leaf_grid.nx == 16


def test_parent_of_leaf():
    grid = MultiLevelGrid(BBox(0, 0, 1, 1), s=3)
    assert grid.parent_of((7, 2)) == (2, 0)
    assert grid.parent_of((0, 0)) == (0, 0)


def test_children_only_nonempty():
    table = make_table([(0.01, 0.01), (0.02, 0.02), (0.9, 0.9)])
    grid = MultiLevelGrid.build(table, s=3)
    top = grid.parent_of(grid.leaf_of(0.01, 0.01))
    children = list(grid.children_of(top))
    assert children  # at least the leaf holding users 0/1
    for leaf in children:
        assert grid.users_in_leaf(leaf)


def test_top_bbox_contains_children_bboxes():
    grid = MultiLevelGrid(BBox(0, 0, 2, 2), s=4)
    top = (1, 2)
    top_box = grid.top_bbox(top)
    bx, by = top[0] * grid.s, top[1] * grid.s
    for dx in range(grid.s):
        for dy in range(grid.s):
            leaf_box = grid.leaf_bbox((bx + dx, by + dy))
            assert leaf_box.minx >= top_box.minx - 1e-12
            assert leaf_box.maxx <= top_box.maxx + 1e-12
            assert leaf_box.miny >= top_box.miny - 1e-12
            assert leaf_box.maxy <= top_box.maxy + 1e-12


def test_nonempty_tops_cover_all_users():
    rng = random.Random(21)
    table = make_table([(rng.random(), rng.random()) for _ in range(120)])
    grid = MultiLevelGrid.build(table, s=5)
    covered = set()
    for top in grid.nonempty_tops():
        for leaf in grid.children_of(top):
            covered.update(grid.users_in_leaf(leaf))
    assert covered == set(range(120))


def test_invalid_fanout():
    with pytest.raises(ValueError):
        MultiLevelGrid(BBox(0, 0, 1, 1), s=0)


def test_every_user_under_its_parent():
    rng = random.Random(22)
    table = make_table([(rng.random(), rng.random()) for _ in range(80)])
    grid = MultiLevelGrid.build(table, s=4)
    for leaf, users in grid.leaf_grid.cells.items():
        assert users and leaf in set(grid.children_of(grid.parent_of(leaf)))
    assert len(grid) == 80


@pytest.mark.parametrize("s", [1, 2, 4])
def test_a_span_at_the_coordinate_bound_keeps_every_user_in_its_boxes(s):
    """Users at ±2**500 (the input domain's bound) span 2**501: every
    user lands in a cell, and lies inside its leaf's box and its top
    node's box — the boxes the AIS and SPA lower bounds are read
    from."""
    bound = COORDINATE_BOUND
    points = [(-bound, -bound), (bound, bound), (bound, -bound), (0.5, 5e-324), (-bound / 10, bound / 3)]
    table = LocationTable.from_columns([p[0] for p in points], [p[1] for p in points])
    grid = MultiLevelGrid.build(table, s)
    for leaf, users in grid.leaf_grid.cells.items():
        for user in users:
            x, y = points[user]
            assert grid.leaf_bbox(leaf).contains(x, y), (user, leaf)
            assert grid.top_bbox(grid.parent_of(leaf)).contains(x, y), (user, leaf)
    assert len(grid) == len(points)
