"""Tests for the aggregate index: construction, bound validity, and an
engine's index after location updates vs. a fresh build."""

import math
import random

import pytest

from repro.core.engine import GeoSocialEngine
from repro.graph.landmarks import LandmarkIndex
from repro.graph.traversal import dijkstra_distances
from repro.index.aggregate import AggregateIndex
from repro.index.bounds import social_lower_bound
from tests.conftest import random_graph, random_locations

INF = math.inf


@pytest.fixture()
def setup():
    g = random_graph(120, 5.0, seed=101)
    locations = random_locations(120, seed=102, coverage=0.8)
    lm = LandmarkIndex.build(g, m=3, seed=5)
    index = AggregateIndex.build(locations, lm, s=4)
    return g, locations, lm, index


def indexed(index: AggregateIndex) -> set:
    """Every user under one of ``index``'s leaves."""
    return {user for leaf in index.leaf_summaries for user in index.users_in(leaf)}


def summaries_equal(a: AggregateIndex, b: AggregateIndex) -> bool:
    if set(a.leaf_summaries) != set(b.leaf_summaries):
        return False
    if set(a.top_summaries) != set(b.top_summaries):
        return False
    for key, summary in a.leaf_summaries.items():
        if summary != b.leaf_summaries[key]:
            return False
    for key, summary in a.top_summaries.items():
        if summary != b.top_summaries[key]:
            return False
    return True


class TestBuild:
    def test_indexes_only_located_users(self, setup):
        _, locations, _, index = setup
        assert len(index) == locations.n_located

    def test_leaf_summaries_bracket_members(self, setup):
        _, _, lm, index = setup
        for leaf, summary in index.leaf_summaries.items():
            for user in index.users_in(leaf):
                vec = lm.vector(user)
                for j in range(lm.m):
                    assert summary.m_check[j] <= vec[j] <= summary.m_hat[j]

    def test_top_summaries_cover_children(self, setup):
        _, _, _, index = setup
        for top, summary in index.top_summaries.items():
            for leaf in index.grid.children_of(top):
                child = index.leaf_summaries[leaf]
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
            for user in index.users_in(leaf):
                assert bound <= truth.get(user, INF) + 1e-9


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
        leaf, _, bbox = next(iter(index.children(index.grid.nonempty_tops()[0])))
        assert index.spatial_mindist(bbox, leaf, False, 0.5, 0.5) == bbox.mindist(0.5, 0.5)

    def test_out_of_box_query_borders_bound_zero(self, setup):
        _, _, _, index = setup
        res = index.grid.s * index.grid.s
        border_leaf = (0, 0)
        bbox = index.grid.leaf_bbox(border_leaf)
        assert index.spatial_mindist(bbox, border_leaf, False, -10.0, -10.0) == 0.0
