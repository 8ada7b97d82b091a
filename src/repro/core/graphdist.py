"""The point-to-point distance oracle pluggable into SFA/SPA/TSA.

The paper's Figure 8 compares the vanilla methods (whose social-distance
module is an incremental shared Dijkstra) against variants whose
distance module is replaced by Contraction Hierarchies (SFA-CH, SPA-CH,
TSA-CH).  An oracle exposes::

    distance(source, target) -> float   # exact graph distance
    pops                                 # cumulative heap pops

Algorithms snapshot ``pops`` around a query to attribute costs.
"""

from __future__ import annotations

import threading

from repro.graph.ch import ContractionHierarchy
from repro.utils.heaps import MinHeap


class CHOracle:
    """Contraction-Hierarchies-backed oracle (the paper's "CH").

    SSRQ evaluation asks for many targets from the *same* source (the
    query vertex), so the oracle materialises the source's forward CH
    search space once and answers each target with a pruned backward
    search only.

    The memoised forward search space (and the pop-counting heap) is
    kept in thread-local storage: the searchers that share one oracle
    may run concurrently on the threads that share one service, and a
    source switch by one thread must not invalidate (or corrupt) the
    forward space another thread is still probing.
    """

    __slots__ = ("ch", "_local")

    def __init__(self, ch: ContractionHierarchy) -> None:
        self.ch = ch
        self._local = threading.local()

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "heap"):
            local.heap = MinHeap()
            local.source = None
            local.forward = None
        return local

    def distance(self, source: int, target: int) -> float:
        state = self._state()
        if source != state.source:
            state.source = source
            state.forward = self.ch.upward_distances(source, state.heap)
        return self.ch.distance_from(state.forward, source, target, state.heap)

    @property
    def pops(self) -> int:
        """Cumulative heap pops of the *calling thread's* searches (each
        worker attributes only its own query costs)."""
        return self._state().heap.pops
