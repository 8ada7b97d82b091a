"""Tests for the ranking function and normalisation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranking import Normalization, RankingFunction
from tests.conftest import random_graph, random_locations

INF = math.inf
NORM = Normalization(p_max=10.0, d_max=2.0)


class TestRankingFunction:
    def test_linear_combination(self):
        rank = RankingFunction(0.3, NORM)
        # f = 0.3 * (5/10) + 0.7 * (1/2)
        assert math.isclose(rank.score(5.0, 1.0), 0.3 * 0.5 + 0.7 * 0.5)

    def test_alpha_zero_ignores_social(self):
        rank = RankingFunction(0.0, NORM)
        assert rank.score(INF, 1.0) == 0.5
        assert not rank.needs_social
        assert rank.needs_spatial

    def test_alpha_one_ignores_spatial(self):
        rank = RankingFunction(1.0, NORM)
        assert rank.score(5.0, INF) == 0.5
        assert rank.needs_social
        assert not rank.needs_spatial

    def test_infinite_distance_gives_infinite_score(self):
        rank = RankingFunction(0.5, NORM)
        assert rank.score(INF, 1.0) == INF
        assert rank.score(5.0, INF) == INF

    def test_no_nan_at_endpoints(self):
        for alpha in (0.0, 1.0):
            rank = RankingFunction(alpha, NORM)
            value = rank.score(INF, INF)
            assert value == value  # INF, but never NaN

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            RankingFunction(-0.1, NORM)
        with pytest.raises(ValueError):
            RankingFunction(1.5, NORM)

    def test_parts_sum_to_score(self):
        rank = RankingFunction(0.7, NORM)
        p, d = 3.0, 0.5
        assert math.isclose(rank.social_part(p) + rank.spatial_part(d), rank.score(p, d))

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_property_monotone(self, alpha, p1, p2, d1, d2):
        """f must be increasingly monotone in both distances (the TA
        requirement TSA's correctness rests on)."""
        rank = RankingFunction(alpha, NORM)
        if p1 <= p2 and d1 <= d2:
            assert rank.score(p1, d1) <= rank.score(p2, d2) + 1e-12


class TestNormalization:
    def test_estimate_from_data(self):
        g = random_graph(50, 4.0, seed=201)
        locations = random_locations(50, seed=202)
        norm = Normalization.estimate(g, locations)
        assert norm.p_max > 0
        assert norm.d_max > 0
        assert norm.d_max == locations.bbox().diagonal

    def test_estimate_no_locations(self):
        g = random_graph(20, 3.0, seed=203)
        locations = random_locations(20, seed=204, coverage=0.0)
        norm = Normalization.estimate(g, locations)
        assert norm.d_max == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Normalization(p_max=-1.0, d_max=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1.0", True, None])
    def test_non_finite_or_non_numeric_rejected(self, bad):
        """NaN passed the old ``< 0`` check and every query then
        answered ``[]``; ``inf`` made ``auto`` raise at alpha 0.3."""
        for field in ("p_max", "d_max"):
            kwargs = {"p_max": 1.0, "d_max": 1.0, field: bad}
            with pytest.raises(ValueError, match=rf"^{field} must be 0 or a number in \[2\*\*-480"):
                Normalization(**kwargs)

    def test_degenerate_normalisers_no_crash(self):
        rank = RankingFunction(0.5, Normalization(p_max=0.0, d_max=0.0))
        assert rank.score(0.0, 0.0) == 0.0
