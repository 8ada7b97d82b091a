"""Incremental nearest-neighbour search over a uniform grid.

Implements the branch-and-bound, distance-ordered retrieval used by the
Spatial First Approach and by TSA's spatial stream (paper Section 4):
users are produced strictly in non-decreasing Euclidean distance from
the query point, one at a time, and the search state persists between
calls ("sorted access" in the TA terminology of Section 2.4).

The frontier is a min-heap mixing *cells* (keyed by a lower bound on
the distance to any user inside) and *users* (keyed by exact distance).
Cells are fed into the heap ring by ring around the query cell, so work
is proportional to the neighbourhood actually explored rather than the
whole grid.
"""

from __future__ import annotations

from typing import Iterator

from repro.backend import NumpyKernels
from repro.spatial.grid import UniformGrid
from repro.spatial.point import LocationTable
from repro.utils.heaps import MinHeap

_CELL = 0
_USER = 1


class IncrementalNearestNeighbors:
    """Distance-ordered user stream around a fixed query point.

    Parameters
    ----------
    grid:
        The spatial index to search.
    locations:
        Coordinate table used for exact user distances.
    x, y:
        Query point.
    exclude:
        Optional user id never to report (typically the query user).
    heap:
        Optional externally-owned heap, letting callers aggregate pop
        statistics across search structures.
    kernels:
        Optional :class:`~repro.backend.NumpyKernels` evaluating a
        popped cell's user distances in one batched call (a fresh
        instance when omitted).
    """

    __slots__ = ("grid", "locations", "x", "y", "exclude", "heap", "_ring", "_max_ring", "_exhausted", "count", "cells_opened", "_kernels", "_xs", "_ys")

    def __init__(
        self,
        grid: UniformGrid,
        locations: LocationTable,
        x: float,
        y: float,
        exclude: int | None = None,
        heap: MinHeap | None = None,
        kernels=None,
    ) -> None:
        self.grid = grid
        self.locations = locations
        self.x = x
        self.y = y
        self.exclude = exclude
        self.heap = heap if heap is not None else MinHeap()
        self._kernels = kernels if kernels is not None else NumpyKernels()
        self._xs, self._ys = locations.columns()
        self._ring = 0
        center = grid.cell_of(x, y)
        self._max_ring = grid.max_ring_radius(center)
        self._exhausted = False
        #: number of users reported so far
        self.count = 0
        #: number of grid cells popped and expanded so far
        self.cells_opened = 0
        self._push_ring(center, 0)

    def _push_ring(self, center: tuple[int, int], radius: int) -> None:
        for coords in self.grid.ring_cells(center, radius):
            key = self.grid.cell_mindist(coords[0], coords[1], self.x, self.y)
            # Tie-break by coordinates for determinism.
            self.heap.push((key, _CELL, coords))

    def _refill(self) -> None:
        """Feed rings until the heap front is guaranteed correct."""
        center = self.grid.cell_of(self.x, self.y)
        while self._ring < self._max_ring:
            next_lb = self.grid.ring_lower_bound(self._ring + 1)
            if self.heap and self.heap.peek_key() <= next_lb:
                return
            self._ring += 1
            self._push_ring(center, self._ring)
        self._exhausted = True

    def next(self) -> tuple[int, float] | None:
        """Return the next ``(user, distance)`` pair, or ``None`` when
        every indexed user has been reported."""
        while True:
            if not self._exhausted:
                self._refill()
            if not self.heap:
                return None
            key, kind, payload = self.heap.pop()
            if kind == _CELL:
                self.cells_opened += 1
                ix, iy = payload
                ids = self.grid.ids_in(ix, iy)
                distances = self._kernels.euclidean_to_point(
                    self._xs, self._ys, self.x, self.y, ids
                )
                push = self.heap.push
                exclude = self.exclude
                for pos in range(len(ids)):
                    user = int(ids[pos])
                    if user == exclude:
                        continue
                    push((float(distances[pos]), _USER, user))
            else:
                self.count += 1
                return payload, key

    def __iter__(self) -> Iterator[tuple[int, float]]:
        while True:
            item = self.next()
            if item is None:
                return
            yield item
