"""plan — method resolution.

- :mod:`repro.plan.rules` — the served :data:`~repro.plan.rules.METHODS`
  and the one endpoint rule every dispatch path shares
  (``route_method``), read off the query's score weights: a zero
  social weight runs ``bounded`` (off its k-d tree), a zero spatial
  weight runs SFA, ``bruteforce`` is never routed, and any other
  request runs what it names (``auto``: ``bounded``);
- :mod:`repro.plan.planner` — the :class:`Planner` resolving ``auto``
  per query by that same rule (``bounded`` decides for itself whether
  its first ball pays).

Both engine kinds own one planner (``engine.planner``) and expose
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
