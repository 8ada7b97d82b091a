"""The AIS aggregate index (paper Section 5.1).

A two-level regular grid over user locations (every internal node parent
to ``s x s`` leaf cells) where each nonempty node carries a
:class:`~repro.index.summaries.SocialSummary` — per-landmark min/max
graph-distance vectors over the users below it.  Together with a cell's
spatial extent this yields ``MINF``, a lower bound on the ranking score
of every user in the cell (Theorem 1), enabling the unified
branch-and-bound search of :class:`~repro.core.ais.AggregateIndexSearch`.

The paper maintains the index on every location update (deletion from
the old leaf, insertion into the new one, summaries widened or
recomputed up the hierarchy).  Here an index is built once over a
location table, in one pass, and the engine drops it on a location
update: its next ``ais`` query builds another from the current table.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator

import numpy as np

from repro.graph.landmarks import LandmarkIndex
from repro.index.summaries import SocialSummary
from repro.spatial.multigrid import MultiLevelGrid
from repro.spatial.point import BBox, LocationTable

INF = math.inf


class AggregateIndex:
    """Multi-level grid with social summaries.

        >>> from repro import AggregateIndex, SocialGraph, LocationTable
        >>> from repro.graph.landmarks import LandmarkIndex
        >>> g = SocialGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 3.0)])
        >>> loc = LocationTable.from_columns([0.0, 0.1, 0.9, 0.2], [0.0, 0.0, 0.9, 0.1])
        >>> index = AggregateIndex.build(loc, LandmarkIndex.build(g, 2, "degree", 0), s=2)
        >>> len(list(index.tops()))   # occupied top-level cells
        2
    """

    def __init__(
        self,
        multigrid: MultiLevelGrid,
        landmarks: LandmarkIndex,
        locations: LocationTable,
    ) -> None:
        self.grid = multigrid
        self.landmarks = landmarks
        self.locations = locations
        self.leaf_summaries: dict[tuple[int, int], SocialSummary] = {}
        self.top_summaries: dict[tuple[int, int], SocialSummary] = {}
        self._rebuild_summaries()

    @classmethod
    def build(
        cls,
        locations: LocationTable,
        landmarks: LandmarkIndex,
        s: int = 10,
    ) -> "AggregateIndex":
        """Index every located user at grid fanout ``s`` (leaf
        resolution ``s² x s²``)."""
        return cls(MultiLevelGrid.build(locations, s), landmarks, locations)

    def _rebuild_summaries(self) -> None:
        """Every node's summary in one pass: a min and a max
        ``reduceat`` over the landmark matrix's columns, grouped by leaf,
        then over the leaves' bounds, grouped by top node."""
        cells = self.grid.leaf_grid.cells
        if not cells:
            return
        leaves = list(cells)
        sizes = [len(members) for members in cells.values()]
        members = np.fromiter(chain.from_iterable(cells.values()), np.intp, sum(sizes))
        rows = self.landmarks.matrix[:, members]
        starts = np.cumsum([0] + sizes[:-1])
        low = np.minimum.reduceat(rows, starts, axis=1)
        high = np.maximum.reduceat(rows, starts, axis=1)
        self.leaf_summaries = _summaries(leaves, low, high)
        parents = [self.grid.parent_of(leaf) for leaf in leaves]
        order = sorted(range(len(leaves)), key=parents.__getitem__)
        tops = [parents[i] for i in order]
        starts = [i for i, top in enumerate(tops) if i == 0 or top != tops[i - 1]]
        self.top_summaries = _summaries(
            [tops[i] for i in starts],
            np.minimum.reduceat(low[:, order], starts, axis=1),
            np.maximum.reduceat(high[:, order], starts, axis=1),
        )

    # -- search-facing accessors ----------------------------------------

    @property
    def s(self) -> int:
        return self.grid.s

    def tops(self) -> Iterator[tuple[tuple[int, int], SocialSummary, BBox]]:
        """Nonempty top-level nodes with summaries and extents."""
        for top in self.grid.nonempty_tops():
            yield top, self.top_summaries[top], self.grid.top_bbox(top)

    def children(
        self, top: tuple[int, int]
    ) -> Iterator[tuple[tuple[int, int], SocialSummary, BBox]]:
        """Nonempty leaf children of ``top``."""
        for leaf in self.grid.children_of(top):
            yield leaf, self.leaf_summaries[leaf], self.grid.leaf_bbox(leaf)

    def users_in(self, leaf: tuple[int, int]) -> list[int]:
        return self.grid.users_in_leaf(leaf)

    def user_ids(self, leaf: tuple[int, int]):
        """Leaf membership as a cached contiguous id-array — the
        columnar form the batched AIS leaf expansion feeds to
        :mod:`repro.backend` kernels."""
        return self.grid.ids_in_leaf(leaf)

    def spatial_mindist(self, bbox: BBox, node: tuple[int, int], is_top: bool, x: float, y: float) -> float:
        """Lower bound on the distance from ``(x, y)`` to any user under
        the node.  Border nodes are unbounded outward (clamped users may
        physically lie outside their cell after updates), so for an
        out-of-box query point they bound at 0."""
        if not self.grid.bbox.contains(x, y):
            res = self.grid.s if is_top else self.grid.s * self.grid.s
            ix, iy = node
            if ix == 0 or iy == 0 or ix == res - 1 or iy == res - 1:
                return 0.0
        return bbox.mindist(x, y)

    def __len__(self) -> int:
        return len(self.grid)


def _summaries(keys: list, low: np.ndarray, high: np.ndarray) -> dict:
    """``{key: summary}`` from per-key bound columns."""
    return {
        key: SocialSummary.of_bounds(m_check, m_hat)
        for key, m_check, m_hat in zip(keys, low.T.tolist(), high.T.tolist())
    }
