"""The unified searcher execution contract.

Every query processor the engine dispatches to — the five families
SFA / SPA / TSA / AIS / brute force, their CH-backed and cached
variants included — satisfies one protocol:

- ``search(query_user, k, alpha, initial=None)`` answers one SSRQ,
  optionally warm-started from an ``initial``
  :class:`~repro.core.result.TopKBuffer` of already fully-evaluated
  users (the sharded engine's threshold-propagation hook); the
  forward-deterministic stream searchers (SFA, SPA, TSA) additionally
  accept ``social=``, the Dijkstra stream from ``v_q`` to enumerate —
  how the query pipeline's column step hands them the expansion it
  checks in afterwards (:func:`repro.social.scan.column_step`);
- the returned :class:`~repro.core.result.SSRQResult` carries a fully
  populated :class:`~repro.core.stats.SearchStats`: heap pops per
  domain, **cells opened** (grid/aggregate-index cells expanded),
  **candidates scored** (users whose combined score was computed),
  exact evaluations, and wall time.

The stats side of the contract is what feeds the adaptive planner
(:mod:`repro.plan`): per-query execution cost is observable uniformly
across methods, so ``method="auto"`` can learn which family is cheap
in which regime.  ``tests/test_plan_planner.py`` pins conformance for
every method in :data:`repro.core.engine.METHODS`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.result import SSRQResult, TopKBuffer


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
        initial: TopKBuffer | None = None,
    ) -> SSRQResult:
        """Answer one SSRQ with per-query execution stats populated."""
        ...
