"""The AIS aggregate index (paper Section 5.1).

A two-level regular grid over user locations: ``s x s`` top nodes, each
parent to ``s x s`` leaf cells of a :class:`~repro.spatial.grid.UniformGrid`
at resolution ``s² x s²`` (only the lowest two levels of the paper's
hierarchy are materialised, its footnote 1).  Every nonempty node
carries a :class:`SocialSummary` — per-landmark min/max graph-distance
vectors over the users below it.  Together with a node's spatial extent
this yields ``MINF``, a lower bound on the ranking score of every user
under the node (Theorem 1), enabling the unified branch-and-bound
search of :class:`~repro.core.ais.AggregateIndexSearch`.

The paper maintains the index on every location update (deletion from
the old leaf, insertion into the new one, summaries widened or
recomputed up the hierarchy).  Here an index is built once over a
location table, in one pass, and the engine drops it on a location
update: its next ``ais`` query builds another from the current table.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from repro.graph.landmarks import LandmarkIndex
from repro.spatial.grid import UniformGrid
from repro.spatial.point import BBox, LocationTable


class SocialSummary(NamedTuple):
    """One node's bound vectors: per landmark, the least (``m̌``) and
    greatest (``m̂``) landmark distance over the users below it."""

    m_check: list
    m_hat: list


class AggregateIndex:
    """A leaf grid at resolution ``s²`` with a social summary per node.

    A leaf ``(ix, iy)``'s parent is the top node ``(ix // s, iy // s)``.

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
        grid: UniformGrid,
        s: int,
        landmarks: LandmarkIndex,
    ) -> None:
        if s < 1 or grid.nx != s * s or grid.ny != s * s:
            raise ValueError(
                f"leaf grid resolution {grid.nx}x{grid.ny} is not s² for fanout s = {s}"
            )
        self.grid = grid
        self.s = s
        self.landmarks = landmarks
        #: per nonempty leaf, in the grid's cell order
        self.leaf_summaries: dict[tuple[int, int], SocialSummary] = {}
        #: per nonempty top node, sorted
        self.top_summaries: dict[tuple[int, int], SocialSummary] = {}
        if grid.cells:
            self._summarise()

    @classmethod
    def build(
        cls,
        locations: LocationTable,
        landmarks: LandmarkIndex,
        s: int = 10,
    ) -> "AggregateIndex":
        """Index every located user at grid fanout ``s`` (leaf
        resolution ``s² x s²``)."""
        return cls(UniformGrid.build(locations, s * s), s, landmarks)

    def _summarise(self) -> None:
        """Every node's summary in one pass: a min and a max
        ``reduceat`` over the landmark matrix's columns, grouped by leaf,
        then over the leaves' bounds, grouped by top node."""
        cells = self.grid.cells
        leaves = list(cells)
        sizes = [len(members) for members in cells.values()]
        rows = self.landmarks.matrix[:, np.concatenate(list(cells.values()))]
        starts = np.cumsum([0] + sizes[:-1])
        low = np.minimum.reduceat(rows, starts, axis=1)
        high = np.maximum.reduceat(rows, starts, axis=1)
        self.leaf_summaries = _summaries(leaves, low, high)
        s = self.s
        parents = [(ix // s, iy // s) for ix, iy in leaves]
        order = sorted(range(len(leaves)), key=parents.__getitem__)
        tops = [parents[i] for i in order]
        starts = [i for i, top in enumerate(tops) if i == 0 or top != tops[i - 1]]
        self.top_summaries = _summaries(
            [tops[i] for i in starts],
            np.minimum.reduceat(low[:, order], starts, axis=1),
            np.maximum.reduceat(high[:, order], starts, axis=1),
        )

    # -- search-facing accessors ----------------------------------------

    def tops(self) -> Iterator[tuple[tuple[int, int], SocialSummary, BBox]]:
        """Nonempty top nodes, sorted, with summaries and extents (from
        the node's first leaf's low corner to its last leaf's high
        corner)."""
        s, cell_bbox = self.s, self.grid.cell_bbox
        for (tx, ty), summary in self.top_summaries.items():
            first = cell_bbox(tx * s, ty * s)
            last = cell_bbox(tx * s + s - 1, ty * s + s - 1)
            yield (tx, ty), summary, BBox(first.minx, first.miny, last.maxx, last.maxy)

    def children(
        self, top: tuple[int, int]
    ) -> Iterator[tuple[tuple[int, int], SocialSummary, BBox]]:
        """Nonempty leaf children of ``top``, in ``(dx, dy)`` order."""
        s, summaries = self.s, self.leaf_summaries
        for dx in range(s):
            for dy in range(s):
                leaf = (top[0] * s + dx, top[1] * s + dy)
                summary = summaries.get(leaf)
                if summary is not None:
                    yield leaf, summary, self.grid.cell_bbox(*leaf)

    def spatial_mindist(self, bbox: BBox, node: tuple[int, int], is_top: bool, x: float, y: float) -> float:
        """Lower bound on the distance from ``(x, y)`` to any user under
        the node.  Border nodes are unbounded outward (clamped users may
        physically lie outside their cell), so for an out-of-box query
        point they bound at 0."""
        if not self.grid.bbox.contains(x, y):
            res = self.s if is_top else self.s * self.s
            ix, iy = node
            if ix == 0 or iy == 0 or ix == res - 1 or iy == res - 1:
                return 0.0
        return bbox.mindist(x, y)

    def __len__(self) -> int:
        return len(self.grid)


def _summaries(keys: list, low: np.ndarray, high: np.ndarray) -> dict:
    """``{key: summary}`` from per-key bound columns."""
    return {
        key: SocialSummary(m_check, m_hat)
        for key, m_check, m_hat in zip(keys, low.T.tolist(), high.T.tolist())
    }
