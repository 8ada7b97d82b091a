"""Graph substrate: the weighted social network and its search machinery.

Implements everything the paper relies on in the social domain:

- :mod:`repro.graph.socialgraph` — compact CSR adjacency for weighted
  (un)directed graphs;
- :mod:`repro.graph.traversal` — resumable Dijkstra ("sorted access" on
  social distance) and path utilities;
- :mod:`repro.graph.landmarks` — landmark selection and ALT distance
  tables (Goldberg & Harrelson, the paper's reference [25]);
- :mod:`repro.graph.astar` — A* point-to-point search with landmark
  heuristics;
- :mod:`repro.graph.bidirectional` — the bidirectional distance module
  of Section 5.2 (Algorithm 3), with distance caching and forward-heap
  caching;
- :mod:`repro.graph.ch` — Contraction Hierarchies (the comparator of
  Figure 8, reference [44]);
- :mod:`repro.graph.diameter` — diameter estimation for the social
  normaliser ``P_max``.

Edge updates (Section 5.1: rare and batched) have no module here:
:meth:`~repro.graph.socialgraph.SocialGraph.with_edge_updates` folds a
batch into a new immutable graph and the landmark tables are rebuilt
from it, which costs less than keeping a repaired copy current.
"""

from repro.graph.astar import AStarSearch, alt_distance
from repro.graph.bidirectional import BidirectionalDistanceEngine, bidirectional_dijkstra
from repro.graph.ch import ContractionHierarchy
from repro.graph.diameter import double_sweep_diameter
from repro.graph.landmarks import LandmarkIndex, select_landmarks
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import (
    DijkstraIterator,
    dijkstra_distances,
    hop_counts,
    shortest_path,
)

__all__ = [
    "SocialGraph",
    "DijkstraIterator",
    "dijkstra_distances",
    "shortest_path",
    "hop_counts",
    "LandmarkIndex",
    "select_landmarks",
    "AStarSearch",
    "alt_distance",
    "BidirectionalDistanceEngine",
    "bidirectional_dijkstra",
    "ContractionHierarchy",
    "double_sweep_diameter",
]
