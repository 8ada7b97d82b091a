"""Tests for the aggregate index: every node's summary against its
definition, the two-level grid's addressing, bound validity, and an
engine's index after location updates vs. a fresh build."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.engine import GeoSocialEngine
from repro.graph.landmarks import LandmarkIndex
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import dijkstra_distances
from repro.index.aggregate import AggregateIndex, SocialSummary
from repro.index.bounds import social_lower_bound
from repro.spatial.grid import UniformGrid
from repro.spatial.point import BBox, LocationTable
from repro.utils.validation import COORDINATE_BOUND
from tests.conftest import random_graph, random_locations

INF = math.inf

#: users at ±2**500 (the input domain's bound), spanning 2**501
BOUND_POINTS = [
    (-COORDINATE_BOUND, -COORDINATE_BOUND),
    (COORDINATE_BOUND, COORDINATE_BOUND),
    (COORDINATE_BOUND, -COORDINATE_BOUND),
    (0.5, 5e-324),
    (-COORDINATE_BOUND / 10, COORDINATE_BOUND / 3),
]


def table_of(points):
    return LocationTable.from_columns([p[0] for p in points], [p[1] for p in points])


@pytest.fixture()
def setup():
    g = random_graph(120, 5.0, seed=101)
    locations = random_locations(120, seed=102, coverage=0.8)
    lm = LandmarkIndex.build(g, m=3, seed=5)
    index = AggregateIndex.build(locations, lm, s=4)
    return g, locations, lm, index


def build_case(case: str) -> "tuple[AggregateIndex, LocationTable]":
    """One input of the definition tests, by name: the index and the
    location table it was built from."""
    if case == "random":
        g, locations = random_graph(120, 5.0, seed=101), random_locations(120, 102, 0.8)
        return AggregateIndex.build(locations, LandmarkIndex.build(g, m=3, seed=5), s=4), locations
    if case.startswith("bound-s"):
        g = random_graph(len(BOUND_POINTS), 2.0, seed=9)
        landmarks = LandmarkIndex.build(g, m=2, seed=1)
        locations = table_of(BOUND_POINTS)
        return AggregateIndex.build(locations, landmarks, s=int(case[len("bound-s"):])), locations
    if case == "disconnected":
        # two components: every landmark leaves the other one at inf
        g = SocialGraph.from_edges(8, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (4, 5, 1.0), (5, 6, 3.0)])
        rng = random.Random(4)
        locations = table_of([(rng.random(), rng.random()) for _ in range(8)])
        index = AggregateIndex.build(locations, LandmarkIndex.build(g, m=2, seed=2), s=2)
        assert np.isinf(index.landmarks.matrix).any()
        return index, locations
    assert case == "moved"
    g, locations = random_graph(120, 5.0, seed=101), random_locations(120, 102, 0.8)
    engine = GeoSocialEngine(g, locations, num_landmarks=3, s=3)
    engine.aggregate
    rng = random.Random(8)
    for _ in range(40):
        engine.move_user(rng.randrange(120), rng.random(), rng.random())
    engine.forget_location(int(engine.located_users()[0]))
    return engine.aggregate, engine.locations


CASES = ["random", "bound-s1", "bound-s2", "bound-s4", "disconnected", "moved"]


def by_definition(index: AggregateIndex, locations: LocationTable):
    """Every node's summary from its definition: the per-landmark min
    and max of the landmark matrix over the users of ``locations`` whose
    point falls in the node (a leaf by ``grid.cell_of``, its top node by
    ``(ix // s, iy // s)``)."""
    leaves: dict = {}
    tops: dict = {}
    for user in locations.located_users():
        ix, iy = index.grid.cell_of(*locations.get(user))
        leaves.setdefault((ix, iy), []).append(user)
        tops.setdefault((ix // index.s, iy // index.s), []).append(user)

    def summary(users):
        rows = index.landmarks.matrix[:, users]
        return SocialSummary(rows.min(axis=1).tolist(), rows.max(axis=1).tolist())

    return (
        {leaf: summary(users) for leaf, users in leaves.items()},
        {top: summary(users) for top, users in tops.items()},
    )


def indexed(index: AggregateIndex) -> set:
    """Every user under one of ``index``'s leaves."""
    return {user for ids in index.grid.cells.values() for user in ids.tolist()}


def summaries_equal(a: AggregateIndex, b: AggregateIndex) -> bool:
    return a.leaf_summaries == b.leaf_summaries and a.top_summaries == b.top_summaries


@pytest.mark.parametrize("case", CASES)
def test_every_summary_is_its_definition(case):
    index, locations = build_case(case)
    leaves, tops = by_definition(index, locations)
    assert index.leaf_summaries == leaves
    assert index.top_summaries == tops
    assert list(index.leaf_summaries) == list(index.grid.cells)


class TestBuild:
    def test_indexes_only_located_users(self, setup):
        _, locations, _, index = setup
        assert len(index) == locations.n_located
        assert indexed(index) == set(locations.located_users())

    def test_leaf_summaries_bracket_members(self, setup):
        _, _, lm, index = setup
        for leaf, summary in index.leaf_summaries.items():
            for user in index.grid.ids_in(*leaf):
                vec = lm.vector(user)
                for j in range(lm.m):
                    assert summary.m_check[j] <= vec[j] <= summary.m_hat[j]

    def test_top_summaries_cover_children(self, setup):
        _, _, _, index = setup
        for top, summary, _ in index.tops():
            for _, child, _ in index.children(top):
                for j in range(len(summary.m_check)):
                    assert summary.m_check[j] <= child.m_check[j]
                    assert summary.m_hat[j] >= child.m_hat[j]

    def test_cell_social_bound_valid_for_members(self, setup):
        g, _, lm, index = setup
        query = 0
        truth = dijkstra_distances(g, query)
        qv = lm.vector(query)
        for leaf, summary in index.leaf_summaries.items():
            bound = social_lower_bound(qv, summary.m_check, summary.m_hat)
            for user in index.grid.ids_in(*leaf).tolist():
                assert bound <= truth.get(user, INF) + 1e-9


def test_leaf_resolution_is_s_squared(setup):
    _, _, _, index = setup
    assert (index.s, index.grid.nx, index.grid.ny) == (4, 16, 16)


def test_invalid_fanout(setup):
    _, locations, lm, _ = setup
    with pytest.raises(ValueError):
        AggregateIndex.build(locations, lm, s=0)
    with pytest.raises(ValueError, match="is not s²"):
        AggregateIndex(UniformGrid.build(locations, 9), 2, lm)


def test_parent_of_leaf():
    """At ``s = 3`` the leaf ``(7, 2)`` is a child of the top node
    ``(2, 0)``; the box corners put one user in it."""
    table = table_of([(0.0, 0.0), (1.0, 1.0), (7.5 / 9, 2.5 / 9)])
    one_landmark = SimpleNamespace(matrix=np.arange(3.0)[None, :])
    index = AggregateIndex.build(table, one_landmark, s=3)
    assert index.grid.cell_of(7.5 / 9, 2.5 / 9) == (7, 2)
    assert [leaf for leaf, _, _ in index.children((2, 0))] == [(7, 2)]
    assert [top for top, _, _ in index.tops()] == [(0, 0), (2, 0), (2, 2)]


def test_tops_are_sorted_and_children_in_dx_dy_order(setup):
    _, _, _, index = setup
    tops = [top for top, _, _ in index.tops()]
    assert tops == sorted({(ix // 4, iy // 4) for ix, iy in index.grid.cells})
    for top in tops:
        children = [leaf for leaf, _, _ in index.children(top)]
        expected = [
            (top[0] * 4 + dx, top[1] * 4 + dy)
            for dx in range(4)
            for dy in range(4)
            if (top[0] * 4 + dx, top[1] * 4 + dy) in index.grid.cells
        ]
        assert children == expected


def test_children_only_nonempty(setup):
    _, _, _, index = setup
    for top, _, _ in index.tops():
        children = list(index.children(top))
        assert children
        for leaf, summary, bbox in children:
            assert len(index.grid.ids_in(*leaf))
            assert (summary, bbox) == (index.leaf_summaries[leaf], index.grid.cell_bbox(*leaf))


def test_top_bbox_contains_children_bboxes(setup):
    """A top node's extent runs from its first leaf's low corner to its
    last leaf's high corner, and holds every child's box."""
    _, _, _, index = setup
    s = index.s
    for (tx, ty), _, top_box in index.tops():
        first = index.grid.cell_bbox(tx * s, ty * s)
        last = index.grid.cell_bbox(tx * s + s - 1, ty * s + s - 1)
        assert top_box == BBox(first.minx, first.miny, last.maxx, last.maxy)
        for _, _, leaf_box in index.children((tx, ty)):
            assert leaf_box.minx >= top_box.minx - 1e-12
            assert leaf_box.maxx <= top_box.maxx + 1e-12
            assert leaf_box.miny >= top_box.miny - 1e-12
            assert leaf_box.maxy <= top_box.maxy + 1e-12


def test_nonempty_tops_cover_all_users(setup):
    _, locations, _, index = setup
    covered = set()
    for top, _, _ in index.tops():
        for leaf, _, _ in index.children(top):
            covered.update(index.grid.ids_in(*leaf).tolist())
    assert covered == set(locations.located_users())


def test_every_user_under_its_parent(setup):
    _, locations, _, index = setup
    for leaf, users in index.grid.cells.items():
        parent = (leaf[0] // index.s, leaf[1] // index.s)
        assert len(users) and leaf in {child for child, _, _ in index.children(parent)}
    assert len(index) == locations.n_located


@pytest.mark.parametrize("s", [1, 2, 4])
def test_a_span_at_the_coordinate_bound_keeps_every_user_in_its_boxes(s):
    """Users at ±2**500 (the input domain's bound) span 2**501: every
    user lands in a cell, and lies inside its leaf's box and its top
    node's box — the boxes the AIS and SPA lower bounds are read
    from."""
    index, _ = build_case(f"bound-s{s}")
    top_boxes = {top: box for top, _, box in index.tops()}
    for leaf, users in index.grid.cells.items():
        for user in users.tolist():
            x, y = BOUND_POINTS[user]
            assert index.grid.cell_bbox(*leaf).contains(x, y), (user, leaf)
            assert top_boxes[(leaf[0] // s, leaf[1] // s)].contains(x, y), (user, leaf)
    assert len(index) == len(BOUND_POINTS)


class TestUpdates:
    """A location update drops the engine's index; the next reader's
    index equals a fresh build over the current table."""

    @pytest.fixture()
    def engine(self, setup):
        g, locations, _, _ = setup
        engine = GeoSocialEngine(g, locations.copy(), num_landmarks=3, s=4)
        engine.aggregate  # built before the updates
        return engine

    def fresh(self, engine):
        return AggregateIndex.build(engine.locations, engine.landmarks, s=4)

    def test_move_between_cells_matches_rebuild(self, engine):
        user = int(engine.located_users()[0])
        engine.move_user(user, 0.987, 0.013)
        assert summaries_equal(engine.aggregate, self.fresh(engine))

    def test_insert_previously_unlocated(self, engine):
        user = next(u for u in range(120) if not engine.locations.has_location(u))
        engine.move_user(user, 0.5, 0.5)
        assert user in indexed(engine.aggregate)
        assert summaries_equal(engine.aggregate, self.fresh(engine))

    def test_remove_user(self, engine):
        user = int(engine.located_users()[0])
        assert engine.forget_location(user)
        assert user not in indexed(engine.aggregate)
        assert summaries_equal(engine.aggregate, self.fresh(engine))

    def test_random_update_storm_matches_rebuild(self, engine):
        rng = random.Random(7)
        for step in range(120):
            user = rng.randrange(120)
            if rng.random() < 0.7:
                engine.move_user(user, rng.random(), rng.random())
            else:
                engine.forget_location(user)
            if step % 10 == 0:
                assert summaries_equal(engine.aggregate, self.fresh(engine))
        assert summaries_equal(engine.aggregate, self.fresh(engine))

    def test_empty_cell_summaries_are_dropped(self, engine):
        # Move every user onto one point: all other summaries gone.
        for user in engine.located_users().tolist():
            engine.move_user(user, 0.001, 0.001)
        assert len(engine.aggregate.leaf_summaries) == 1
        assert len(engine.aggregate.top_summaries) == 1
        assert summaries_equal(engine.aggregate, self.fresh(engine))


class TestSpatialMindist:
    def test_in_box_query_uses_bbox(self, setup):
        _, _, _, index = setup
        top, _, _ = next(index.tops())
        leaf, _, bbox = next(index.children(top))
        assert index.spatial_mindist(bbox, leaf, False, 0.5, 0.5) == bbox.mindist(0.5, 0.5)

    def test_out_of_box_query_borders_bound_zero(self, setup):
        _, _, _, index = setup
        border_leaf = (0, 0)
        bbox = index.grid.cell_bbox(*border_leaf)
        assert index.spatial_mindist(bbox, border_leaf, False, -10.0, -10.0) == 0.0
