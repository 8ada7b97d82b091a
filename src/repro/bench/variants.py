"""The paper's figure-only method variants — the reproduction tier.

Section 6 compares five algorithms (the served ``sfa``/``spa``/``tsa``/
``tsa-qc``/``ais``); every other method name exists to draw one figure:
``sfa-ch``/``spa-ch``/``tsa-ch`` (CH-backed distance module, Figure 8),
``ais-minus``/``ais-bid`` (AIS without delayed evaluation / with
per-evaluation bidirectional search, Figures 10 and 12), ``ais-cache``
(pre-computed social lists of length ``t`` with an AIS fallback,
Figure 11) and the ``ais-nosummary``/``ais-interleave4`` ablations.
None is served; :data:`VARIANTS` builds each from an engine's public
parts, and :func:`run_query` is the one seam the figure drivers and the
examples call.  The CH (:mod:`repro.bench.ch`) and the neighbour lists
(:mod:`repro.bench.aiscache`) are memoised per engine, without locks:
figure drivers are single-threaded.

    >>> from repro import GeoSocialEngine, gowalla_like
    >>> from repro.bench.variants import run_query
    >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
    >>> got = run_query(engine, "ais-cache", 0, k=5, alpha=0.3, t=50)
    >>> got.method, got.users == run_query(engine, "bruteforce", 0, 5, 0.3).users
    ('ais-cache', True)
"""

from __future__ import annotations

import weakref
from typing import Callable

from repro.bench.aiscache import CachedSocialFirst, SocialNeighborCache
from repro.bench.ch import ContractionHierarchy
from repro.core.ais import AggregateIndexSearch, AISVariant
from repro.core.ranking import RankingFunction
from repro.core.request import QueryRequest
from repro.core.result import SSRQResult
from repro.core.sfa import SocialFirstSearch
from repro.core.spa import SpatialFirstSearch
from repro.core.tsa import TwofoldSearch
from repro.plan.rules import route_method

__all__ = ["DEFAULT_T", "VARIANTS", "neighbor_cache", "run_query", "variant_searcher"]

#: ``ais-cache`` list length when a caller names none
DEFAULT_T = 500

#: engine -> {key: built component}; weak, so a dropped engine takes
#: its CH and neighbour lists with it
_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _memoised(engine, key, build: Callable[[], object]):
    memo = _MEMO.setdefault(engine, {})
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _oracle(engine) -> ContractionHierarchy:
    """The CH over ``engine.graph``: the ``*-ch`` variants' shared
    point-to-point distance module."""
    return _memoised(engine, "ch", lambda: ContractionHierarchy.build(engine.graph))


def neighbor_cache(engine, t: int) -> SocialNeighborCache:
    """The ``t``-nearest social neighbour lists over ``engine.graph``
    (Figure 11 pre-builds them offline, before timing)."""
    return _memoised(engine, ("lists", t), lambda: SocialNeighborCache(engine.graph, t))


def _ais(e, variant: AISVariant) -> AggregateIndexSearch:
    return AggregateIndexSearch(
        e.graph, e.locations, e.landmarks, e.aggregate, e.normalization,
        variant, kernels=e.kernels,
    )


#: ``name -> builder(engine, t)`` (``t`` only means something to
#: ``ais-cache``)
VARIANTS: "dict[str, Callable]" = {
    "ais-minus": lambda e, t: _ais(e, AISVariant(delayed_evaluation=False)),
    "ais-bid": lambda e, t: _ais(
        e, AISVariant(share_forward=False, cache_paths=False, delayed_evaluation=False)
    ),
    "ais-nosummary": lambda e, t: _ais(e, AISVariant(use_social_summaries=False)),
    "ais-interleave4": lambda e, t: _ais(e, AISVariant(forward_interleave=4)),
    "sfa-ch": lambda e, t: SocialFirstSearch(
        e.graph, e.locations, e.normalization, point_to_point=_oracle(e)
    ),
    "spa-ch": lambda e, t: SpatialFirstSearch(
        e.graph, e.locations, e.grid, e.normalization,
        point_to_point=_oracle(e), kernels=e.kernels,
    ),
    "tsa-ch": lambda e, t: TwofoldSearch(
        e.graph, e.locations, e.grid, e.normalization,
        landmarks=e.landmarks, point_to_point=_oracle(e), kernels=e.kernels,
    ),
    "ais-cache": lambda e, t: CachedSocialFirst(
        e.graph, e.locations, e.normalization, neighbor_cache(e, t), e.searcher("ais")
    ),
}


def variant_searcher(engine, method: str, t: int | None = None):
    """The searcher object behind variant ``method`` over ``engine``'s
    graph, location table and current indexes.  Built on each call: a
    searcher only gathers those parts (what costs, the CH and the
    neighbour lists, is memoised per engine), so none outlives an index
    that a location update dropped."""
    if method == "ais-cache" and t is None:
        t = DEFAULT_T
    return VARIANTS[method](engine, t)


def run_query(
    engine, method: str, user: int, k: int, alpha: float, t: int | None = None
) -> SSRQResult:
    """Answer one SSRQ with ``method``: ``engine.query`` for a served
    name (or ``"auto"``), the variant's searcher otherwise.  A variant
    takes the served methods' endpoint rule
    (:func:`~repro.plan.rules.route_method`): ``bounded`` at a zero
    social weight, SFA at a zero spatial weight."""
    if method not in VARIANTS:
        return engine.query(user, k, alpha, method)
    request = QueryRequest(user, k, alpha, method)
    route = route_method(method, RankingFunction(request.alpha, engine.normalization))
    if route != method:
        return engine.query(request.user, request.k, request.alpha, route)
    result = variant_searcher(engine, method, t).search(request.user, request.k, request.alpha)
    result.method = method
    return result
