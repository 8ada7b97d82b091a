"""Tests for Lemma 2 / Theorem 1 lower bounds, including infinity
(disconnection) handling."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranking import Normalization, RankingFunction
from repro.graph.landmarks import LandmarkIndex
from repro.graph.traversal import dijkstra_distances
from repro.index.bounds import minf, social_lower_bound
from tests.conftest import random_graph
from tests.scalar_kernels import social_lower_bound_vertex

INF = math.inf


def bound_pair(vectors):
    """``(m̌, m̂)`` over member vectors: the per-landmark min and max."""
    return [min(column) for column in zip(*vectors)], [max(column) for column in zip(*vectors)]


class TestSocialLowerBound:
    def test_paper_example(self):
        """Figure 4: single landmark, cell distances in [1, 4], query at
        distance 2 from the landmark... the paper's concrete instance:
        m_check=1, m_hat=4, query distance to landmark = 0 -> bound 1."""
        assert social_lower_bound([0.0], [1.0], [4.0]) == 1.0

    def test_query_above_m_hat(self):
        assert social_lower_bound([7.0], [1.0], [4.0]) == 3.0

    def test_query_inside_interval_is_zero(self):
        assert social_lower_bound([2.5], [1.0], [4.0]) == 0.0

    def test_tightest_over_landmarks(self):
        q = [0.0, 10.0]
        m_check = [2.0, 1.0]
        m_hat = [5.0, 3.0]
        # landmark 0: 2-0=2; landmark 1: 10-3=7
        assert social_lower_bound(q, m_check, m_hat) == 7.0

    def test_all_disconnected_from_landmark_uninformative(self):
        assert social_lower_bound([INF], [INF], [INF]) == 0.0

    def test_cell_disconnected_query_connected(self):
        assert social_lower_bound([3.0], [INF], [INF]) == INF

    def test_query_disconnected_cell_connected(self):
        assert social_lower_bound([INF], [1.0], [4.0]) == INF

    def test_mixed_cell_with_infinite_member(self):
        # m_hat = inf (some member unreachable from landmark), query
        # above m_check: no valid bound from the upper side.
        assert social_lower_bound([5.0], [1.0], [INF]) == 0.0
        # query below m_check still bounds.
        assert social_lower_bound([0.5], [1.0], [INF]) == 0.5

    def test_no_nan_ever(self):
        for q in (0.0, 1.0, INF):
            for lo in (0.0, 2.0, INF):
                for hi in (2.0, 5.0, INF):
                    if lo > hi:
                        continue
                    value = social_lower_bound([q], [lo], [hi])
                    assert value == value  # not NaN


class TestVertexBound:
    def test_matches_landmark_index(self):
        g = random_graph(40, 4.0, seed=91)
        lm = LandmarkIndex.build(g, m=3, seed=1)
        for u in range(0, 40, 5):
            qv = lm.vector(u)
            for v in range(40):
                assert social_lower_bound_vertex(qv, lm.vector(v)) == lm.lower_bound(u, v)

    def test_degenerate_summary_equals_vertex_bound(self):
        qv = (1.0, 5.0)
        vec = (3.0, 2.0)
        assert social_lower_bound_vertex(qv, vec) == social_lower_bound(qv, vec, vec)


class TestValidityAgainstTrueDistances:
    def test_cell_bound_below_every_member(self):
        g = random_graph(60, 4.0, seed=92)
        lm = LandmarkIndex.build(g, m=4, seed=2)
        rng = random.Random(3)
        query = 0
        truth = dijkstra_distances(g, query)
        qv = lm.vector(query)
        for _ in range(30):
            members = rng.sample(range(g.n), rng.randint(1, 8))
            vectors = [lm.vector(v) for v in members]
            bound = social_lower_bound(qv, *bound_pair(vectors))
            for v in members:
                assert bound <= truth.get(v, INF) + 1e-9


class TestMinf:
    def test_combines_with_alpha_weights(self):
        rank = RankingFunction(0.3, Normalization(p_max=10.0, d_max=2.0))
        value = minf(rank, 5.0, 1.0)
        assert math.isclose(value, 0.3 * 0.5 + 0.7 * 0.5)

    def test_pure_social(self):
        rank = RankingFunction(1.0, Normalization(p_max=10.0, d_max=2.0))
        assert minf(rank, 5.0, INF) == 0.5  # spatial term weight 0

    def test_pure_spatial(self):
        rank = RankingFunction(0.0, Normalization(p_max=10.0, d_max=2.0))
        assert minf(rank, INF, 1.0) == 0.5


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=4),
    st.lists(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    ),
)
def test_property_group_bound_below_member_bounds(query_vec, member_vecs):
    """The group bound can never exceed any member's individual bound."""
    m = len(query_vec)
    member_vecs = [vec[:m] + [0.0] * (m - len(vec)) for vec in member_vecs]
    group = social_lower_bound(query_vec, *bound_pair(member_vecs))
    for vec in member_vecs:
        assert group <= social_lower_bound_vertex(query_vec, vec) + 1e-9
