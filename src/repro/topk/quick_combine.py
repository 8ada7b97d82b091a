"""Quick Combine probe scheduling (Güntzer et al.; paper Section 4.2).

Instead of round-robin, Quick Combine probes next the repository whose
threshold contribution is growing fastest: it estimates, per stream,
the recent rate of increase of the last-pulled value and weighs it by
the stream's preference coefficient.  TSA-QC plugs this policy into the
twofold search's first phase (social weight ``α``, spatial ``1 − α``).
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

#: how many recent observations per stream the rate of increase is
#: estimated over
WINDOW = 4


class QuickCombinePolicy:
    """Chooses which of ``m`` sorted streams to probe next, given each
    stream's preference coefficient (e.g. ``(α, 1 − α)``)."""

    __slots__ = ("weights", "_history", "_probes", "_next_rr")

    def __init__(self, weights: Sequence[float]) -> None:
        if not weights:
            raise ValueError("need at least one stream")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        self.weights = list(weights)
        self._history: list[deque[float]] = [deque(maxlen=WINDOW) for _ in weights]
        self._probes = [0] * len(weights)
        self._next_rr = 0

    def observe(self, stream: int, value: float) -> None:
        """Record the value just pulled from ``stream``."""
        self._history[stream].append(value)
        self._probes[stream] += 1

    def rate(self, stream: int) -> float:
        """Estimated weighted growth rate of ``stream``'s threshold
        contribution; ``inf`` until the stream has been observed twice
        (unexplored streams get priority)."""
        history = self._history[stream]
        if len(history) < 2:
            return float("inf")
        span = len(history) - 1
        return self.weights[stream] * (history[-1] - history[0]) / span

    def choose(self, active: Sequence[bool]) -> int:
        """Index of the next stream to probe among those still active.

        Falls back to round-robin among equal rates so no active stream
        starves.
        """
        candidates = [j for j, a in enumerate(active) if a]
        if not candidates:
            raise ValueError("no active stream to probe")
        best = max(candidates, key=lambda j: (self.rate(j), -((j - self._next_rr) % len(active))))
        self._next_rr = (best + 1) % len(active)
        return best


class RoundRobinPolicy:
    """The paper's default probing: strict alternation among active
    streams (social first)."""

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 0

    def observe(self, stream: int, value: float) -> None:  # noqa: ARG002 - interface parity
        return None

    def choose(self, active: Sequence[bool]) -> int:
        m = len(active)
        for offset in range(m):
            j = (self._next + offset) % m
            if active[j]:
                self._next = (j + 1) % m
                return j
        raise ValueError("no active stream to probe")
