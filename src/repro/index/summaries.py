"""Per-cell social summaries: the ``(m̌, m̂)`` vector pairs.

A summary over a set of vertices keeps, per landmark ``j``, the minimum
(``m̌[j]``) and maximum (``m̂[j]``) landmark distance among its members
(paper Section 5.1).  Summaries compose: a parent node's summary is the
component-wise min/max over its children's, which is how leaf summaries
propagate upward.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

INF = math.inf


class SocialSummary:
    """Min/max landmark-distance vectors for one index node."""

    __slots__ = ("m_check", "m_hat")

    def __init__(self, m: int) -> None:
        #: per-landmark minimum distance over members (inf when empty)
        self.m_check = [INF] * m
        #: per-landmark maximum distance over members (-inf when empty)
        self.m_hat = [-INF] * m

    @property
    def empty(self) -> bool:
        return self.m_hat[0] == -INF if self.m_hat else True

    @classmethod
    def of_bounds(cls, m_check: list, m_hat: list) -> "SocialSummary":
        """A summary with these bound vectors (lists, adopted)."""
        summary = cls(0)
        summary.m_check, summary.m_hat = m_check, m_hat
        return summary

    @classmethod
    def of_vectors(cls, m: int, vectors: Iterable[Sequence[float]]) -> "SocialSummary":
        summary = cls(m)
        for vector in vectors:
            summary.widen(vector)
        return summary

    def widen(self, vector: Sequence[float]) -> bool:
        """Account for a new member vector; returns ``True`` if either
        bound vector changed (meaning parents may need widening too)."""
        changed = False
        m_check, m_hat = self.m_check, self.m_hat
        for j, value in enumerate(vector):
            if value < m_check[j]:
                m_check[j] = value
                changed = True
            if value > m_hat[j]:
                m_hat[j] = value
                changed = True
        return changed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SocialSummary):
            return NotImplemented
        return self.m_check == other.m_check and self.m_hat == other.m_hat

    def __repr__(self) -> str:
        return f"SocialSummary(m_check={self.m_check}, m_hat={self.m_hat})"
