"""plan — method resolution (``method="auto"``).

- :mod:`repro.plan.rules` — the method table and the static endpoint
  routing every dispatch path shares (``route_method``), plus the
  ``auto`` sentinel;
- :mod:`repro.plan.planner` — the :class:`Planner` resolving ``auto``
  per query by static rules: SFA at ``alpha == 1`` and ``bounded``
  everywhere else (which decides for itself whether its first ball
  pays, and at ``alpha == 0`` reads a k-d tree).

Both engine kinds own one planner (``engine.planner``) and expose
``engine.resolve_method(...)``; the service layer looks an ``auto``
request up on the question alone, *before* resolving it (named methods
keep one cache line per resolved method), and ``auto`` subscriptions
re-resolve on every recompute.
"""

from repro.plan.planner import AdaptivePlanner, Planner, PlannerStats
from repro.plan.rules import AUTO, route_method, static_choice

__all__ = [
    "AUTO",
    "AdaptivePlanner",
    "Planner",
    "PlannerStats",
    "route_method",
    "static_choice",
]
