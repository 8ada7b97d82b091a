"""The unified searcher execution contract.

Every query processor the engine dispatches to — the five families
SFA / SPA / TSA / AIS / brute force, their CH-backed and cached
variants included — satisfies one protocol:

- ``search(query_user, k, alpha)`` answers one SSRQ; the column
  searchers (``bounded``, ``bruteforce``) additionally have
  ``scan(query_user, k, alpha)``, which returns the full social column
  they built beside the answer, for the query pipeline's column step
  to cache (:func:`repro.social.scan.column_step`);
- the returned :class:`~repro.core.result.SSRQResult` carries a fully
  populated :class:`~repro.core.stats.SearchStats`: heap pops per
  domain, **cells opened** (grid/aggregate-index cells expanded),
  **candidates scored** (users whose combined score was computed),
  exact evaluations, and wall time.

The stats side of the contract makes per-query execution cost
observable uniformly across methods (what the benchmarks and the
paper's figures compare).  ``tests/test_plan_planner.py`` pins
conformance for every method in :data:`repro.core.engine.METHODS`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.result import SSRQResult


@runtime_checkable
class Searcher(Protocol):
    """Structural type of every engine-dispatched query processor.

        >>> from repro import GeoSocialEngine, Searcher, gowalla_like
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
        >>> isinstance(engine.searcher("tsa"), Searcher)
        True
    """

    def search(
        self,
        query_user: int,
        k: int,
        alpha: float,
    ) -> SSRQResult:
        """Answer one SSRQ with per-query execution stats populated."""
        ...
