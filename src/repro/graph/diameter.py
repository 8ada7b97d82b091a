"""Graph diameter estimation for the social normaliser ``P_max``.

The ranking function divides social distance by the maximum pairwise
graph distance (paper Section 3.1).  Computing the exact weighted
diameter is quadratic; the classic *double sweep* gives a tight lower
bound in a handful of Dijkstra runs and is the standard estimator for
this purpose.  Because ``P_max`` is only a fixed normalising constant
shared by every algorithm, a consistent estimate preserves all rankings.
Each sweep is one ``sssp_column`` kernel call
(:mod:`repro.backend`, bit-identical on both backends), so the
estimate does not depend on which one is installed.
"""

from __future__ import annotations

import math

from repro.backend import resolve_backend
from repro.graph.socialgraph import SocialGraph
from repro.utils.rng import make_rng

INF = math.inf


def _farthest(graph: SocialGraph, source: int) -> tuple[int, float]:
    """Reachable vertex maximising distance from ``source`` (ties broken
    by id for determinism)."""
    column = resolve_backend().sssp_column(graph, source)
    best_v, best_d = source, 0.0
    for v, d in enumerate(column):
        if d != INF and d > best_d:
            best_v, best_d = v, d
    return best_v, float(best_d)


def double_sweep_diameter(graph: SocialGraph, sweeps: int = 2, seed: int = 0) -> float:
    """Double-sweep lower bound on the weighted diameter.

    Runs ``sweeps`` independent sweeps (each: Dijkstra from a random
    start, then Dijkstra from the farthest vertex found) and returns the
    largest eccentricity observed.  Returns 0 for edgeless graphs.
    """
    if graph.n == 0:
        return 0.0
    rng = make_rng(seed)
    best = 0.0
    for _ in range(max(1, sweeps)):
        start = rng.randrange(graph.n)
        far, _ = _farthest(graph, start)
        _, ecc = _farthest(graph, far)
        if ecc > best:
            best = ecc
    return best
