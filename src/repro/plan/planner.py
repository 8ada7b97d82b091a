"""The resolver behind ``method="auto"``: one static rule, no learned
state.

Every served method implements Definition 1 with the shared
deterministic tie-break (smaller id wins), so choosing among them is a
pure performance decision, and since the ``sssp_column`` kernel one arm
wins it: ``bounded`` (SFA's stopping rule as a kernel radius), which
itself decides per query whether its first ball pays
(:class:`~repro.core.bounded.BoundedSearch`; a skipped ball is exactly
the ``bruteforce`` path).  Resolving ``auto`` is therefore the one
endpoint rule every named method takes too
(:func:`~repro.plan.rules.route_method`): ``bounded``, or SFA where
the spatial weight is 0.

(An unlocated query user below ``alpha == 1`` is rejected by the
engine itself, for ``auto`` and every named method alike.)

The same ``(user, k, alpha)`` therefore takes the same path whatever
was asked before it, and ``auto`` answers are bit-identical to
``bruteforce``'s, both equal to Definition 1
(``tests/test_service_model.py``), and repairable in the stream
registry (``bounded`` is forward-deterministic).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.core.ranking import RankingFunction
from repro.plan.rules import AUTO, AUTO_METHOD, route_method

if TYPE_CHECKING:
    from repro.core.request import QueryRequest


@dataclass
class PlannerStats:
    """Lifetime counters of one :class:`Planner`.

        >>> from repro.plan import PlannerStats
        >>> stats = PlannerStats(per_method={"bounded": 3, "sfa": 1})
        >>> stats.snapshot()["auto_resolutions"], stats.static_routes
        (4, 1)
    """

    #: resolved-method counts over ``auto`` requests
    per_method: dict = field(default_factory=dict)

    @property
    def auto_resolutions(self) -> int:
        """``auto`` requests resolved."""
        return sum(self.per_method.values())

    @property
    def static_routes(self) -> int:
        """``auto`` requests routed to SFA (a zero spatial weight)."""
        return self.per_method.get("sfa", 0)

    def snapshot(self) -> dict:
        return asdict(self) | {
            "auto_resolutions": self.auto_resolutions,
            "static_routes": self.static_routes,
        }


class Planner:
    """Resolves ``method="auto"`` per query (module docstring).

        >>> from repro import GeoSocialEngine, gowalla_like
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
        >>> result = engine.query(user=8, k=5, alpha=0.3, method="auto")
        >>> result.method
        'bounded'
        >>> result.users == engine.query(8, 5, 0.3, method="bruteforce").users
        True

    ``resolve`` and ``observe`` are plain attributes on purpose: the
    benchmark tracer (``perfbench/trace.py``) wraps them per instance,
    and ``resolve`` runs once for every ``auto`` query the engine
    answers (pinned by perfbench).
    """

    #: the two paths interior ``auto`` takes: ``bounded`` with its first
    #: ball, or without it, which is the ``bruteforce`` path (pinned by
    #: perfbench: its regret probe takes ``min()`` over these)
    candidates = (AUTO_METHOD, "bruteforce")

    def __init__(self, *, seed: int = 0) -> None:
        # ``seed`` is accepted and unused (pinned by perfbench, which
        # builds ``AdaptivePlanner(seed=...)``): nothing here is random
        self.stats = PlannerStats()
        self._lock = threading.Lock()

    def resolve(self, engine, request: "QueryRequest") -> str:
        """The concrete method an ``auto`` ``request`` runs on ``engine``."""
        method = route_method(AUTO, RankingFunction(request.alpha, engine.normalization))
        with self._lock:
            per_method = self.stats.per_method
            per_method[method] = per_method.get(method, 0) + 1
        return method

    def observe(self, decision, cost: float) -> None:
        """No-op: nothing is learned (pinned by perfbench, whose tracer
        wraps it)."""

    def calibrate(self, engine) -> int:
        """No-op returning ``0`` probes: there is nothing to calibrate
        (pinned by perfbench, whose harness calls it)."""
        return 0

    def __repr__(self) -> str:
        return f"Planner(resolved={self.stats.auto_resolutions})"


#: the planner's name before it stopped learning (pinned by perfbench:
#: ``from repro.plan import AdaptivePlanner``)
AdaptivePlanner = Planner
