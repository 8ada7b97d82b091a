"""Compact per-user social-distance sketches (columnar, persistable).

A sketch answers "roughly how socially far is ``v`` from the query
user?" without any graph traversal, from two ingredients:

1. **2-hop neighbourhood entries** — for every user ``u``, the exact
   lengths of the shortest ≤2-hop paths to each user reachable within
   two hops (capped at :attr:`SketchIndex.max_entries` per user, kept
   smallest-distance-first).  A path length is always a valid *upper*
   bound on the true distance, and for the near field — which is where
   top-``k`` answers live at interior ``α`` — it is usually tight.
2. **Landmark-difference intervals** — the ALT lower bound
   ``p̌ = max_j |m_qj − m_vj|`` and upper bound ``p̂ = min_j (m_qj +
   m_vj)`` over the engine's existing
   :class:`~repro.graph.landmarks.LandmarkIndex` matrix, batched by the
   :mod:`repro.backend` kernels.

:meth:`SketchIndex.intervals` combines them into per-user ``[p̌, p̂]``
columns (the 2-hop entries tighten ``p̂``); the approx searcher scores
the interval midpoint, whose distance error is certifiably at most the
interval half-width — that is the whole bound argument, and it needs no
empirical luck to hold.

The *empirical* part is the gate: :meth:`SketchIndex.build` probes a
seeded sample of query users and records the largest top-of-ranking
half-width seen (:attr:`empirical_half`, in raw social-distance units).
:meth:`admissible` converts it through the ranking weights into score
units, and the planner only offers ``approx`` to a query whose
``budget`` covers that empirical estimate.

Storage is three columnar arrays (``indptr``/``nbrs``/``dists`` — the
CSR idiom the social graph itself uses) plus scalar metadata, which is
exactly what :mod:`repro.store` persists as optional ``sketch_*``
manifest columns.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as _np

from repro.graph.landmarks import LandmarkIndex
from repro.graph.socialgraph import SocialGraph
from repro.utils.rng import make_rng

INF = math.inf

#: per-user cap on stored 2-hop entries (smallest distances win)
DEFAULT_MAX_ENTRIES = 64
#: query users probed for the empirical error gate
DEFAULT_PROBES = 8
#: ranking depth the probe inspects (top-of-ranking half-widths)
DEFAULT_PROBE_K = 16


class SketchIndex:
    """Precomputed 2-hop + landmark-interval social-distance sketch.

    Built lazily by the engine the first time ``method="approx"`` (or a
    budgeted ``auto`` query) needs it, then cached::

        >>> from repro import GeoSocialEngine, gowalla_like
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=80, seed=3))
        >>> sketch = engine.sketch
        >>> sketch.max_entries
        64
        >>> sketch.admissible(1.0, 0.0)   # budget 0 never admits approx
        False
        >>> sketch.entry_count() <= 80 * sketch.max_entries
        True
    """

    __slots__ = (
        "graph",
        "landmarks",
        "indptr",
        "nbrs",
        "dists",
        "max_entries",
        "empirical_half",
    )

    def __init__(
        self,
        graph: SocialGraph,
        landmarks: LandmarkIndex,
        indptr,
        nbrs,
        dists,
        *,
        max_entries: int,
        empirical_half: float,
    ) -> None:
        if len(indptr) != graph.n + 1:
            raise ValueError(
                f"sketch indptr length {len(indptr)} != n+1 = {graph.n + 1}"
            )
        if len(nbrs) != len(dists) or len(nbrs) != int(indptr[-1]):
            raise ValueError(
                f"sketch entry columns disagree: {len(nbrs)} ids, "
                f"{len(dists)} distances, indptr says {int(indptr[-1])}"
            )
        self.graph = graph
        self.landmarks = landmarks
        self.indptr = indptr
        self.nbrs = nbrs
        self.dists = dists
        self.max_entries = int(max_entries)
        self.empirical_half = float(empirical_half)

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: SocialGraph,
        landmarks: LandmarkIndex,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        probes: int = DEFAULT_PROBES,
        probe_k: int = DEFAULT_PROBE_K,
        seed: int = 0,
        kernels=None,
    ) -> "SketchIndex":
        """Enumerate every user's capped 2-hop neighbourhood and run the
        empirical error probe.  Deterministic for a given graph/seed."""
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        n = graph.n
        indptr = [0] * (n + 1)
        nbrs: list[int] = []
        dists: list[float] = []
        for u in range(n):
            reach: dict[int, float] = {}
            for a, w1 in graph.neighbors(u):
                if a != u and w1 < reach.get(a, INF):
                    reach[a] = w1
                for b, w2 in graph.neighbors(a):
                    if b == u:
                        continue
                    d = w1 + w2
                    if d < reach.get(b, INF):
                        reach[b] = d
            entries = sorted(reach.items(), key=lambda kv: (kv[1], kv[0]))
            if len(entries) > max_entries:
                entries = entries[:max_entries]
                entries.sort()  # canonical id order within each slice
            else:
                entries.sort()
            for v, d in entries:
                nbrs.append(v)
                dists.append(d)
            indptr[u + 1] = len(nbrs)
        sketch = cls(
            graph,
            landmarks,
            _np.asarray(indptr, dtype=_np.int64),
            _np.asarray(nbrs, dtype=_np.int64),
            _np.asarray(dists, dtype=_np.float64),
            max_entries=max_entries,
            empirical_half=0.0,
        )
        sketch.empirical_half = sketch._probe_half(probes, probe_k, seed, kernels)
        return sketch

    @classmethod
    def from_tables(
        cls,
        graph: SocialGraph,
        landmarks: LandmarkIndex,
        indptr,
        nbrs,
        dists,
        *,
        max_entries: int,
        empirical_half: float,
    ) -> "SketchIndex":
        """Adopt persisted sketch columns (the :mod:`repro.store`
        restore path) without re-enumerating or re-probing."""
        return cls(
            graph,
            landmarks,
            indptr,
            nbrs,
            dists,
            max_entries=max_entries,
            empirical_half=empirical_half,
        )

    # -- query-time columns ---------------------------------------------

    def intervals(self, query_user: int, kernels) -> tuple:
        """``(lower, upper)`` social-distance bound columns over all
        users for ``query_user``: landmark intervals tightened by the
        query user's exact 2-hop entries."""
        qvec: Sequence[float] = [row[query_user] for row in self.landmarks.dist]
        ids = range(self.graph.n)
        lower = kernels.alt_lower_bounds(self.landmarks, qvec, ids)
        upper = kernels.alt_upper_bounds(self.landmarks, qvec, ids)
        start = int(self.indptr[query_user])
        end = int(self.indptr[query_user + 1])
        for i in range(start, end):
            v = int(self.nbrs[i])
            d = self.dists[i]
            if d < upper[v]:
                upper[v] = d
        return lower, upper

    # -- the empirical gate ---------------------------------------------

    def _probe_half(self, probes: int, probe_k: int, seed: int, kernels) -> float:
        """Largest top-of-ranking interval half-width over a seeded
        sample of query users (raw social-distance units)."""
        if kernels is None:
            from repro.backend import resolve_backend

            kernels = resolve_backend("python")
        n = self.graph.n
        if n < 2:
            return 0.0
        rng = make_rng(seed)
        sample = rng.sample(range(n), min(probes, n))
        worst = 0.0
        for q in sorted(sample):
            lower, upper = self.intervals(q, kernels)
            est, half = kernels.interval_midpoints(lower, upper)
            est[q] = INF
            top = kernels.top_k_by_score(est, None, probe_k)
            for u in top:
                h = float(half[u])
                if h > worst:
                    worst = h
        return worst

    def admissible(self, w_social: float, budget: float) -> bool:
        """Whether the empirical error estimate fits ``budget``:
        ``w_social · empirical_half <= budget`` (score units — the same
        conversion the certified per-query bound uses)."""
        if budget <= 0.0:
            return False
        cost = w_social * self.empirical_half
        return cost == cost and cost <= budget

    def entry_count(self) -> int:
        """Total stored 2-hop entries (sketch size diagnostic)."""
        return len(self.nbrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SketchIndex(n={self.graph.n}, entries={self.entry_count()}, "
            f"max_entries={self.max_entries}, "
            f"empirical_half={self.empirical_half:.4g})"
        )
