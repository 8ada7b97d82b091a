"""The aggregate index of Section 5.1: a two-level spatial grid, built
once, whose nodes carry *social summaries* — per-landmark min/max
distance vectors (``m̌``/``m̂``) over the users they contain — enabling
the combined lower bound ``MINF`` that drives the AIS branch-and-bound
search.
"""

from repro.index.aggregate import AggregateIndex, SocialSummary
from repro.index.bounds import minf, social_lower_bound

__all__ = ["AggregateIndex", "SocialSummary", "minf", "social_lower_bound"]
