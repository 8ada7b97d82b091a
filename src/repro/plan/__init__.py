"""plan — cost-based adaptive method selection (``method="auto"``).

The paper's evaluation shows no SSRQ processing method dominates; this
package picks per query among interchangeable, rank-identical methods
(by default the two that run on the ``sssp_column`` kernel; the
paper's incremental searchers are opt-in candidates):

- :mod:`repro.plan.rules` — the static endpoint routing every dispatch
  path shares (``route_method``), plus the ``auto`` sentinel;
- :mod:`repro.plan.features` — cheap per-query features (``k``,
  ``alpha``, query-user degree, index cell density) and their buckets;
- :mod:`repro.plan.cost` — per-bucket running cost estimates with
  coarse-to-fine fallback;
- :mod:`repro.plan.planner` — the :class:`AdaptivePlanner` resolving
  ``auto`` per query (static rules → features → epsilon-greedy over
  learned costs, seeded by a calibration pass).

Both engine kinds own a lazily-built planner (``engine.planner``) and
expose ``engine.resolve_method(...)``; the service layer looks an
exact ``auto`` request up on the question alone, *before* planning
(named methods keep one cache line per resolved method), measured
latencies feed back, and ``auto`` subscriptions re-resolve on every
recompute.
"""

from repro.plan.cost import CostModel
from repro.plan.features import (
    FeatureBucket,
    QueryFeatures,
    extract_features,
    scatter_fanout,
)
from repro.plan.planner import (
    DEFAULT_CANDIDATES,
    AdaptivePlanner,
    PlanDecision,
    PlannerStats,
)
from repro.plan.rules import AUTO, route_method, static_choice

__all__ = [
    "AUTO",
    "AdaptivePlanner",
    "CostModel",
    "DEFAULT_CANDIDATES",
    "FeatureBucket",
    "PlanDecision",
    "PlannerStats",
    "QueryFeatures",
    "extract_features",
    "route_method",
    "scatter_fanout",
    "static_choice",
]
