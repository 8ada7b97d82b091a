"""Graph diameter estimation for the social normaliser ``P_max``.

The ranking function divides social distance by the maximum pairwise
graph distance (paper Section 3.1).  Computing the exact weighted
diameter is quadratic; the classic *double sweep* gives a tight lower
bound in a handful of Dijkstra runs and is the standard estimator for
this purpose.  Because ``P_max`` is only a fixed normalising constant
shared by every algorithm, a consistent estimate preserves all rankings.
Each sweep is one ``sssp_column`` kernel call (:mod:`repro.backend`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.backend import NumpyKernels
from repro.graph.socialgraph import SocialGraph
from repro.utils.rng import make_rng

INF = math.inf


def _farthest(graph: SocialGraph, source: int) -> tuple[int, float]:
    """Reachable vertex maximising distance from ``source`` (ties broken
    by id for determinism)."""
    column = NumpyKernels().sssp_column(graph, source)
    reached = np.where(column == INF, 0.0, column)
    far = int(np.argmax(reached))  # the first vertex at the largest finite distance
    return (far, float(reached[far])) if reached[far] > 0.0 else (source, 0.0)


#: how many independent sweeps :func:`double_sweep_diameter` runs
SWEEPS = 2


def double_sweep_diameter(graph: SocialGraph, seed: int = 0) -> float:
    """Double-sweep lower bound on the weighted diameter.

    Runs :data:`SWEEPS` independent sweeps (each: Dijkstra from a random
    start, then Dijkstra from the farthest vertex found) and returns the
    largest eccentricity either half of a sweep observed: on a digraph
    the farthest vertex may be a sink, whose own sweep reaches nobody.
    A start with no out-edge reaches nobody either, so it moves to the
    next vertex that has one (no extra draw).  Returns 0 for edgeless
    graphs.
    """
    starts = np.flatnonzero(np.diff(graph.indptr))
    if not len(starts):
        return 0.0
    rng = make_rng(seed)
    best = 0.0
    for _ in range(SWEEPS):
        start = int(starts[np.searchsorted(starts, rng.randrange(graph.n)) % len(starts)])
        far, ecc = _farthest(graph, start)
        _, back = _farthest(graph, far)
        best = max(best, ecc, back)
    return best
