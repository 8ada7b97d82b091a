"""The served methods and the one endpoint rule every dispatch path
shares.

Definition 1 scores ``f = α·p/P_max + (1−α)·d/D_max``.  A query whose
social weight ``α/P_max`` is 0 is the paper's pure spatial query, and
one whose spatial weight ``(1−α)/D_max`` is 0 its pure social one.
:func:`route_method` reads those two weights off the query's
:class:`~repro.core.ranking.RankingFunction`, the same test every
searcher makes, so a request never reaches a searcher whose stream the
weights leave incomplete:

- a social weight of 0 runs ``bounded``, which reads its k-d tree;
- a spatial weight of 0 runs ``sfa``, whose Dijkstra stream also
  reaches the unlocated users a pure social answer may hold;
- ``bruteforce``, the reference, is never routed;
- any other named method runs itself, and ``auto`` runs ``bounded``.

``GeoSocialEngine.resolve_method``, the planner behind ``auto``
(:mod:`repro.plan.planner`) and the reproduction tier's ``run_query``
all call it.  Every searcher but ``bruteforce`` refuses a query the
rule routes elsewhere (:func:`check_routed`).  Adding a method is one name
in :data:`METHODS` plus one builder in
``repro.core.engine.SEARCHER_BUILDERS``.

This module is import-light on purpose (no :mod:`repro.core` imports),
so every layer can read it without an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ranking import RankingFunction

#: the sentinel method name resolved per query by the planner
AUTO = "auto"
#: what ``auto`` runs wherever both weights are positive
AUTO_METHOD = "bounded"

#: the served methods: the paper's incremental algorithms (served by
#: name; since the ``sssp_column`` kernel ``bounded`` beats each of them
#: at every (n, alpha) measured: docs/BENCHMARKS.md, "What does not pay"),
#: ``bounded`` (SFA's stopping rule as a kernel radius; at a zero social
#: weight the same rule over a k-d tree; what ``auto`` runs) and
#: ``bruteforce`` ("the column + one dense scan": the exact reference)
METHODS = ("sfa", "spa", "tsa", "tsa-qc", "ais", "bounded", "bruteforce")

#: the methods whose per-neighbor social distances are forward-Dijkstra
#: values — deterministic functions of (graph, query, candidate),
#: independent of evaluation schedule and location state, so a stored
#: distance is bit-identical to what a fresh search would recompute.
#: Exactly the methods that can answer off a cached social column; the
#: update-stream layers repair results in place only for these.  AIS
#: evaluates bidirectionally: float association may differ by 1 ulp
#: between schedules.
FORWARD_DETERMINISTIC_METHODS = frozenset(METHODS) - {"ais"}


def route_method(method: str, rank: "RankingFunction") -> str:
    """The concrete method that runs ``method`` under ``rank`` (the
    module docstring's rule).

        >>> from repro import Normalization, RankingFunction, route_method
        >>> norm = Normalization(p_max=4.0, d_max=1.5)
        >>> [route_method(m, RankingFunction(0.0, norm)) for m in ("tsa", "auto")]
        ['bounded', 'bounded']
        >>> route_method("ais", RankingFunction(1.0, norm))
        'sfa'
        >>> route_method("tsa", RankingFunction(0.3, norm))
        'tsa'

    The weights decide, not ``α``: an ``α`` whose ``α/P_max``
    underflows is a pure spatial query too.

        >>> route_method("sfa", RankingFunction(5e-324, norm))
        'bounded'
    """
    if method == "bruteforce":
        return method
    if not rank.needs_social:
        return "bounded"
    if not rank.needs_spatial:
        return "sfa"
    return AUTO_METHOD if method == AUTO else method


def check_routed(method: str, rank: "RankingFunction") -> None:
    """Refuse a query that :func:`route_method` sends away from
    ``method``, naming the zero weight and the route; every searcher
    but ``bruteforce`` calls it first with its own name."""
    route = route_method(method, rank)
    if route != method:
        weight = "spatial" if rank.needs_social else "social"
        raise ValueError(
            f"{method} does not answer a zero {weight} weight: "
            f"the endpoint rule routes it to {route}"
        )
