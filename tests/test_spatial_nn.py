"""Tests for incremental nearest-neighbour search over the grid."""

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.spatial.grid import UniformGrid
from repro.spatial.nn import IncrementalNearestNeighbors
from repro.spatial.point import LocationTable, euclidean


def build(points, resolution=6):
    table = LocationTable.empty(len(points))
    for user, (x, y) in enumerate(points):
        table.set(user, x, y)
    return table, UniformGrid.build(table, resolution)


def brute_force_order(table, qx, qy, exclude=None):
    entries = [
        (euclidean(*table.get(u), qx, qy), u)
        for u in table.located_users()
        if u != exclude
    ]
    return sorted(entries)


def test_single_point():
    table, grid = build([(0.5, 0.5)])
    nn = IncrementalNearestNeighbors(grid, table, 0.0, 0.0)
    assert nn.next() == (0, euclidean(*table.get(0), 0.0, 0.0))
    assert nn.next() is None


def test_exclude_query_user():
    table, grid = build([(0.5, 0.5), (0.6, 0.6)])
    nn = IncrementalNearestNeighbors(grid, table, 0.5, 0.5, exclude=0)
    user, _ = nn.next()
    assert user == 1
    assert nn.next() is None


def test_full_enumeration_matches_brute_force():
    rng = random.Random(11)
    points = [(rng.random(), rng.random()) for _ in range(250)]
    table, grid = build(points, resolution=9)
    qx, qy = 0.42, 0.58
    expected = brute_force_order(table, qx, qy)
    nn = IncrementalNearestNeighbors(grid, table, qx, qy)
    got = list(nn)
    assert len(got) == len(expected)
    for (gu, gd), (ed, eu) in zip(got, expected):
        assert math.isclose(gd, ed, abs_tol=1e-12)


def test_distances_non_decreasing():
    rng = random.Random(12)
    points = [(rng.random(), rng.random()) for _ in range(400)]
    table, grid = build(points, resolution=12)
    nn = IncrementalNearestNeighbors(grid, table, 0.9, 0.1)
    prev = -1.0
    for _, d in nn:
        assert d >= prev - 1e-12
        prev = d


def test_query_outside_bounding_box():
    rng = random.Random(13)
    points = [(rng.random(), rng.random()) for _ in range(100)]
    table, grid = build(points)
    expected = brute_force_order(table, 5.0, 5.0)
    got = list(IncrementalNearestNeighbors(grid, table, 5.0, 5.0))
    assert [u for u, _ in got] == [u for _, u in expected]


def test_duplicate_locations_all_reported():
    table, grid = build([(0.5, 0.5)] * 5)
    got = list(IncrementalNearestNeighbors(grid, table, 0.1, 0.1))
    assert sorted(u for u, _ in got) == [0, 1, 2, 3, 4]


def test_resumable_between_calls():
    rng = random.Random(14)
    points = [(rng.random(), rng.random()) for _ in range(60)]
    table, grid = build(points)
    nn = IncrementalNearestNeighbors(grid, table, 0.5, 0.5)
    first = [nn.next() for _ in range(10)]
    rest = list(nn)
    assert len(first) + len(rest) == 60
    assert first[-1][1] <= rest[0][1] + 1e-12


def test_count_tracks_reported_users():
    table, grid = build([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)])
    nn = IncrementalNearestNeighbors(grid, table, 0.0, 0.0)
    nn.next()
    nn.next()
    assert nn.count == 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            st.floats(min_value=0, max_value=1, allow_nan=False),
        ),
        min_size=1,
        max_size=60,
    ),
    st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    st.integers(min_value=1, max_value=9),
)
# a subnormal-high box: the query's offset over the cell height is inf
@example(points=[(0.0, 0.0), (0.0, 5e-324)], qx=0.0, qy=1.0, resolution=1)
def test_property_matches_brute_force(points, qx, qy, resolution):
    table, grid = build(points, resolution=resolution)
    expected = [d for d, _ in brute_force_order(table, qx, qy)]
    got = [d for _, d in IncrementalNearestNeighbors(grid, table, qx, qy)]
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert math.isclose(g, e, abs_tol=1e-9)
