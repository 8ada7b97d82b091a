"""Core SSRQ machinery: the ranking function, the query algorithms of
the paper (SFA, SPA, TSA, TSA-QC, AIS), and the engine facade tying
indexes and algorithms together.
"""

from repro.core.ais import AggregateIndexSearch, AISVariant
from repro.core.bounded import BoundedSearch
from repro.core.bruteforce import BruteForceSearch
from repro.core.engine import GeoSocialEngine
from repro.core.ranking import Normalization, RankingFunction
from repro.core.result import Neighbor, SSRQResult, TopKBuffer
from repro.core.sfa import SocialFirstSearch
from repro.core.spa import SpatialFirstSearch
from repro.core.stats import SearchStats
from repro.core.tsa import TwofoldSearch

__all__ = [
    "Normalization",
    "RankingFunction",
    "Neighbor",
    "SSRQResult",
    "TopKBuffer",
    "SearchStats",
    "BoundedSearch",
    "BruteForceSearch",
    "SocialFirstSearch",
    "SpatialFirstSearch",
    "TwofoldSearch",
    "AggregateIndexSearch",
    "AISVariant",
    "GeoSocialEngine",
]
