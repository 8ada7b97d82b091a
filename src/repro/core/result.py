"""Result containers: neighbours, the bounded top-k buffer, and the
query result object.

Every algorithm maintains the paper's interim result ``R`` as a
:class:`TopKBuffer`: a bounded max-heap keyed by ``(f, user)`` whose
head is the *worst* current member, so ``f_k`` (the paper's threshold)
is an O(1) read and insert-with-evict is O(log k).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.stats import SearchStats

INF = math.inf


@dataclass(frozen=True)
class Neighbor:
    """One ranked user.

    ``social``/``spatial`` are the *raw* (unnormalised) distances that
    produced ``score``; ``inf`` marks a distance that is unknown or
    irrelevant at the query's ``α`` (e.g. the social distance under
    ``α = 0`` is never computed).

        >>> from repro import Neighbor
        >>> nb = Neighbor(user=9, score=0.25, social=1.0, spatial=0.1)
        >>> nb.user, nb.score
        (9, 0.25)
    """

    user: int
    score: float
    social: float
    spatial: float


class TopKBuffer:
    """Interim top-k result ``R`` with threshold ``f_k``.

    Only finite scores are admitted: a user at infinite combined
    distance can never be a meaningful SSRQ answer (paper Section 6,
    footnote 3), and rejecting them keeps all algorithms' outputs
    identical in the presence of unreachable/unlocated users.

    Ties on ``score`` are broken toward smaller user ids, making results
    deterministic across algorithms.

        >>> from repro import TopKBuffer
        >>> buf = TopKBuffer(2)
        >>> for user, score in ((3, 0.5), (1, 0.2), (2, 0.4)):
        ...     _ = buf.offer(user, score, score, score)
        >>> [nb.user for nb in buf.neighbors()], buf.fk
        ([1, 2], 0.4)
    """

    __slots__ = ("k", "_heap", "_users")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        # max-heap via negated keys: head is the worst (score, user)
        self._heap: list[tuple[float, int, Neighbor]] = []
        self._users: set[int] = set()

    @property
    def fk(self) -> float:
        """The paper's ``f_k``: the k-th best score so far, ``inf``
        while fewer than ``k`` users are buffered."""
        if len(self._heap) < self.k:
            return INF
        return -self._heap[0][0]

    def offer(self, user: int, score: float, social: float, spatial: float) -> bool:
        """Insert if the entry beats the current threshold.

        A user's score is a deterministic function of the query, so a
        re-offered user (e.g. found by a cache scan and again by the
        warm-started index search) is simply ignored.

        Returns ``True`` if the buffer changed.
        """
        if score == INF or score != score:
            return False
        if user in self._users:
            return False
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-score, -user, Neighbor(user, score, social, spatial)))
            self._users.add(user)
            return True
        worst_score, worst_neg_user, evicted = self._heap[0]
        if (-score, -user) <= (worst_score, worst_neg_user):
            return False
        heapq.heapreplace(self._heap, (-score, -user, Neighbor(user, score, social, spatial)))
        self._users.discard(evicted.user)
        self._users.add(user)
        return True

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, user: int) -> bool:
        return user in self._users

    def neighbors(self) -> list[Neighbor]:
        """Buffered entries, best first (ties toward smaller id)."""
        return sorted((e[2] for e in self._heap), key=lambda nb: (nb.score, nb.user))


@dataclass
class SSRQResult:
    """Outcome of one SSRQ query.

        >>> from repro import Neighbor, SSRQResult
        >>> result = SSRQResult(query_user=0, k=2, alpha=0.5,
        ...                     neighbors=[Neighbor(9, 0.25, 1.0, 0.1)])
        >>> result.users, result.fk, len(result)
        ([9], 0.25, 1)
    """

    query_user: int
    k: int
    alpha: float
    neighbors: list[Neighbor]
    stats: SearchStats = field(default_factory=SearchStats)
    #: the concrete method that produced this result — set by the
    #: engine dispatch layers (``None`` when a searcher is driven
    #: directly); for ``method="auto"`` requests this is the planner's
    #: per-query resolution
    method: str | None = None
    #: the encoded wire form, filled on first use by
    #: :func:`repro.service.model.result_wire`.  A result is never
    #: mutated once the engine handed it out (a subscription repair
    #: builds a new one), so the bytes stay true; they are derived state,
    #: kept out of ``==``, ``repr`` and pickles.
    _wire: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_wire", None)
        return state

    @property
    def users(self) -> list[int]:
        return [nb.user for nb in self.neighbors]

    @property
    def scores(self) -> list[float]:
        return [nb.score for nb in self.neighbors]

    @property
    def fk(self) -> float:
        """Worst reported score (``inf`` for an empty result)."""
        return self.neighbors[-1].score if self.neighbors else INF

    def __iter__(self) -> Iterator[Neighbor]:
        return iter(self.neighbors)

    def __len__(self) -> int:
        return len(self.neighbors)
