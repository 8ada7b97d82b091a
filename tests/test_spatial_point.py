"""Unit and property tests for geometry primitives and LocationTable."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.spatial.point import BBox, LocationTable, euclidean
from repro.utils.validation import COORDINATE_BOUND

INF = math.inf

coords = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestEuclidean:
    def test_known_distance(self):
        assert euclidean(0, 0, 3, 4) == 5.0

    def test_zero_distance(self):
        assert euclidean(1.5, -2.0, 1.5, -2.0) == 0.0

    @given(coords, coords, coords, coords)
    def test_symmetry(self, ax, ay, bx, by):
        assert euclidean(ax, ay, bx, by) == euclidean(bx, by, ax, ay)

    @given(coords, coords, coords, coords, coords, coords)
    def test_triangle_inequality(self, ax, ay, bx, by, cx, cy):
        ab = euclidean(ax, ay, bx, by)
        bc = euclidean(bx, by, cx, cy)
        ac = euclidean(ax, ay, cx, cy)
        assert ac <= ab + bc + 1e-9


class TestBBox:
    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            BBox(1, 0, 0, 1)

    def test_diagonal(self):
        assert BBox(0, 0, 3, 4).diagonal == 5.0

    def test_mindist_inside_is_zero(self):
        assert BBox(0, 0, 1, 1).mindist(0.5, 0.5) == 0.0

    def test_mindist_axis_projection(self):
        # Directly left of the box: horizontal projection.
        assert BBox(1, 0, 2, 1).mindist(0.0, 0.5) == 1.0

    def test_mindist_corner(self):
        assert BBox(1, 1, 2, 2).mindist(0.0, 0.0) == pytest.approx(math.sqrt(2))

    @given(st.lists(st.tuples(coords, coords), min_size=2, max_size=15))
    def test_diagonal_bounds_pairwise_distances(self, points):
        xs, ys = zip(*points)
        box = BBox(min(xs), min(ys), max(xs), max(ys))
        for ax, ay in points:
            for bx, by in points:
                assert euclidean(ax, ay, bx, by) <= box.diagonal + 1e-9


class TestLocationTable:
    def test_empty_has_no_locations(self):
        table = LocationTable.empty(5)
        assert table.n_located == 0
        assert table.coverage == 0.0
        assert table.get(3) is None

    def test_set_and_get(self):
        table = LocationTable.empty(3)
        table.set(1, 0.5, 0.25)
        assert table.get(1) == (0.5, 0.25)
        assert table.n_located == 1

    def test_distance_known_pair(self):
        table = LocationTable.empty(2)
        table.set(0, 0.0, 0.0)
        table.set(1, 3.0, 4.0)
        assert table.distance(0, 1) == 5.0

    def test_distance_missing_is_infinite(self):
        table = LocationTable.empty(2)
        table.set(0, 0.0, 0.0)
        assert table.distance(0, 1) == INF
        assert table.distance(1, 0) == INF

    def test_set_nan_rejected(self):
        table = LocationTable.empty(1)
        with pytest.raises(ValueError):
            table.set(0, math.nan, 0.0)

    def test_clear_forgets(self):
        table = LocationTable.empty(1)
        table.set(0, 1.0, 1.0)
        table.clear(0)
        assert table.get(0) is None
        assert table.n_located == 0

    def test_overwrite_does_not_double_count(self):
        table = LocationTable.empty(1)
        table.set(0, 1.0, 1.0)
        table.set(0, 2.0, 2.0)
        assert table.n_located == 1
        assert table.get(0) == (2.0, 2.0)

    def test_located_users_in_id_order(self):
        table = LocationTable.empty(4)
        table.set(2, 0.1, 0.1)
        table.set(0, 0.2, 0.2)
        assert list(table.located_users()) == [0, 2]

    def test_from_dict(self):
        table = LocationTable.from_dict(3, {1: (0.5, 0.5)})
        assert table.get(1) == (0.5, 0.5)
        assert table.get(0) is None

    def test_bbox_over_known_locations(self):
        table = LocationTable.empty(3)
        table.set(0, 0.0, 0.0)
        table.set(1, 2.0, 3.0)
        box = table.bbox()
        assert (box.minx, box.miny, box.maxx, box.maxy) == (0.0, 0.0, 2.0, 3.0)

    def test_copy_is_independent(self):
        table = LocationTable.empty(1)
        table.set(0, 1.0, 1.0)
        clone = table.copy()
        clone.set(0, 9.0, 9.0)
        assert table.get(0) == (1.0, 1.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            LocationTable.from_columns([0.0], [0.0, 1.0])


NAN = math.nan


@pytest.mark.parametrize(
    "xs,ys,user",
    [
        ([0.5, 0.0, 1.0], [NAN, 0.0, 1.0], 0),  # x known, y missing
        ([0.0, NAN, 1.0], [0.0, 0.2, 1.0], 1),  # y known, x missing
        ([0.0, 0.5, math.inf], [0.0, 0.5, 1.0], 2),
        ([0.0, NAN, 1.0], [-math.inf, NAN, 1.0], 0),
    ],
)
def test_a_half_missing_or_infinite_pair_is_refused_naming_the_user(xs, ys, user):
    """``(0.5, NaN)`` used to count as located: ``sfa``, ``bounded``,
    ``bruteforce`` and ``auto`` answered ``[]`` at α = 0.5 where
    ``spa``, ``tsa`` and ``tsa-qc`` raised from the grid, and an
    infinite coordinate was refused only as an infinite ``D_max``.  A
    location is two finite coordinates or two NaNs, however the table
    is built."""
    import numpy as np

    match = f"user {user} has location"
    with pytest.raises(ValueError, match=match):
        LocationTable(xs, ys)
    with pytest.raises(ValueError, match=match):
        LocationTable.from_columns(xs, ys)
    with pytest.raises(ValueError, match=match):
        LocationTable.adopt_columns(np.array(xs), np.array(ys))


def test_a_location_set_one_at_a_time_is_finite():
    """Finite, and inside the input domain: a coordinate past 2**500
    (one ulp is enough) is refused like ``inf``, naming the field, and
    NaN is no location (``clear`` forgets one)."""
    bound = COORDINATE_BOUND
    table = LocationTable.empty(2)
    for x, y, field in ((math.inf, 0.0, "x"), (0.0, -math.inf, "y"), (0.0, NAN, "y"),
                        (math.nextafter(bound, math.inf), 0.0, "x"),
                        (0.0, math.nextafter(-bound, -math.inf), "y")):
        with pytest.raises(ValueError, match=rf"^{field} must be a number in \[-2\*\*500"):
            table.set(0, x, y)
    assert table.n_located == 0
    table.set(1, bound, -5e-324)
    assert table.get(1) == (bound, -5e-324) and table.n_located == 1
