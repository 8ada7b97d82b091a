"""The paper's own worked examples, as executable tests.

Where the paper walks through a concrete instance (the TSA example of
Figure 2, the AIS bound example of Figure 4), we encode the instance
and check our implementation tells the same story.
"""

import math

from repro.core.ranking import Normalization, RankingFunction
from repro.core.result import TopKBuffer
from repro.index.bounds import social_lower_bound

INF = math.inf


class TestFigure2TSAExample:
    """Figure 2: eight users with given (normalised) Euclidean and
    social distances from u_q; k=2, alpha=0.5; the paper derives
    R = {u1, u7} with f values 0.1 and 0.35."""

    D = {1: 0.1, 7: 0.1, 8: 0.6, 6: 0.7, 5: 0.7, 4: 0.8, 3: 0.9, 2: 0.9}
    P = {1: 0.1, 7: 0.6, 8: 0.2, 6: 0.5, 5: 0.2, 4: 0.1, 3: 0.3, 2: 0.4}

    def rank(self) -> RankingFunction:
        # Distances are already normalised in the example.
        return RankingFunction(0.5, Normalization(p_max=1.0, d_max=1.0))

    def test_paper_f_values(self):
        rank = self.rank()
        assert rank.score(self.P[1], self.D[1]) == 0.1
        # Paper: u4 enters with f = 0.45, then u8 with 0.4 replaces it.
        assert rank.score(self.P[4], self.D[4]) == 0.45
        assert rank.score(self.P[8], self.D[8]) == 0.4
        # Final result: u1 (0.1) and u7 (0.35).
        assert rank.score(self.P[7], self.D[7]) == 0.35

    def test_final_result_is_u1_u7(self):
        rank = self.rank()
        buffer = TopKBuffer(2)
        for u in self.D:
            buffer.offer(u, rank.score(self.P[u], self.D[u]), self.P[u], self.D[u])
        assert [nb.user for nb in buffer.neighbors()] == [1, 7]
        assert buffer.fk == 0.35

    def test_phase1_threshold_matches_paper(self):
        """At the point the paper ends phase 1: t_p = 0.2, t_d = 0.6,
        θ = 0.4 = f_k, so the phase terminates."""
        rank = self.rank()
        theta = rank.social_part(0.2) + rank.spatial_part(0.6)
        assert theta == 0.4
        fk = 0.4  # R = {u1, u8} at that moment
        assert theta >= fk

    def test_phase2_candidate_bound(self):
        """Phase 2 starts with Q = {u7}: θ' = 0.5·0.2 + 0.5·0.1 = 0.15
        < f_k = 0.4, so u7 must be resolved — and indeed it wins."""
        import pytest

        rank = self.rank()
        theta2 = rank.social_part(0.2) + rank.spatial_part(self.D[7])
        assert theta2 == pytest.approx(0.15)
        assert theta2 < 0.4


class TestFigure4AISBoundExample:
    """Figure 4: a cell with three users at landmark distances 4, 3, 1;
    the query vertex is at landmark distance 0 (it is adjacent to the
    landmark side).  The paper derives m̂ = 4, m̌ = 1 and a bound
    p̌(v_q, C) = 1 — 'as tight as if the exact landmark information of
    individual users was accessed'."""

    def test_summary_and_bound(self):
        members = (4.0, 3.0, 1.0)
        m_check, m_hat = [min(members)], [max(members)]
        assert (m_check, m_hat) == ([1.0], [4.0])
        # Paper's q has landmark distance m_q1 = 0 -> bound = 1 - 0 = 1.
        assert social_lower_bound([0.0], m_check, m_hat) == 1.0

    def test_bound_tight_as_individual(self):
        # Tightest individual bound: min over members of |m_i - m_q| = 1.
        individual = min(abs(m - 0.0) for m in (4.0, 3.0, 1.0))
        summary_bound = social_lower_bound([0.0], [1.0], [4.0])
        assert summary_bound == individual
