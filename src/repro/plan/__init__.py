"""plan — method resolution.

- :mod:`repro.plan.rules` — the served :data:`~repro.plan.rules.METHODS`
  and the one endpoint rule, read off the query's score weights, that
  every dispatch path takes (``route_method``) and every searcher
  checks (``check_routed``);
- :mod:`repro.plan.planner` — the :class:`Planner` resolving ``auto``
  per query by that same rule (``bounded`` decides for itself whether
  its first ball pays).

The engine owns one planner (``engine.planner``) and exposes
``engine.resolve_method(...)``.  The service layer keys its cache on
the request as asked and looks it up before anything is resolved;
every subscription keeps its request as asked and follows the method
each recompute ran.
"""

from repro.plan.planner import AdaptivePlanner, Planner, PlannerStats
from repro.plan.rules import AUTO, route_method

__all__ = [
    "AUTO",
    "AdaptivePlanner",
    "Planner",
    "PlannerStats",
    "route_method",
]
