"""Binary min-heap wrapper with pop accounting.

Every search structure in the paper (Dijkstra heaps, incremental-NN
heaps, the AIS branch-and-bound heap, reverse A* heaps) is a binary
min-heap, and the paper's *pop ratio* metric counts vertices popped from
all of them.  :class:`MinHeap` wraps :mod:`heapq` and counts pops so the
metric falls out of the data structure instead of being sprinkled over
the algorithms.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Iterator


class MinHeap:
    """A small, fast min-heap of ``(key, payload...)`` tuples.

    Entries are compared by the full tuple, so callers that need
    deterministic tie-breaking include a tie-break component (user id,
    sequence number) after the key.
    """

    __slots__ = ("_items", "pops")

    def __init__(self, items: Iterable[tuple] | None = None) -> None:
        self._items: list[tuple] = list(items) if items is not None else []
        if self._items:
            heapq.heapify(self._items)
        #: number of entries popped over the heap's lifetime
        self.pops: int = 0

    def push(self, item: tuple) -> None:
        heapq.heappush(self._items, item)

    def pop(self) -> tuple:
        self.pops += 1
        return heapq.heappop(self._items)

    def peek_key(self) -> Any:
        """Key (first tuple component) of the minimum entry."""
        return self._items[0][0]

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[tuple]:
        """Iterate entries in arbitrary (heap) order."""
        return iter(self._items)

    def clear(self) -> None:
        self._items.clear()
