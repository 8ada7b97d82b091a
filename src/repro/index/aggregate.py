"""The AIS aggregate index (paper Section 5.1).

A two-level regular grid over user locations (every internal node parent
to ``s x s`` leaf cells) where each nonempty node carries a
:class:`~repro.index.summaries.SocialSummary` — per-landmark min/max
graph-distance vectors over the users below it.  Together with a cell's
spatial extent this yields ``MINF``, a lower bound on the ranking score
of every user in the cell (Theorem 1), enabling the unified
branch-and-bound search of :class:`~repro.core.ais.AggregateIndexSearch`.

Location updates follow the paper's protocol: deletion from the old
leaf, insertion into the new one; summaries shrink by recomputation when
a boundary-defining member leaves, widen in O(M) on insertion, and
changes propagate recursively to parent nodes.
"""

from __future__ import annotations

import math
from typing import Iterator

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
        m = self.landmarks.m
        vector = self.landmarks.vector
        self.leaf_summaries = {}
        for leaf, users in self.grid.leaf_grid.cells.items():
            self.leaf_summaries[leaf] = SocialSummary.of_vectors(
                m, (vector(u) for u in users)
            )
        self.top_summaries = {}
        for leaf, summary in self.leaf_summaries.items():
            top = self.grid.parent_of(leaf)
            parent = self.top_summaries.get(top)
            if parent is None:
                parent = SocialSummary(m)
                self.top_summaries[top] = parent
            parent.widen(summary.m_check)
            parent.widen(summary.m_hat)

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

    def __contains__(self, user: int) -> bool:
        return user in self.grid

    # -- maintenance -------------------------------------------------------

    def insert_user(self, user: int, x: float, y: float) -> None:
        """Index a (newly located) user at ``(x, y)``.

        The caller is responsible for having updated the location table
        first (the index reads member coordinates on recomputation).
        """
        leaf = self.grid.insert(user, x, y)
        self._widen(leaf, self.landmarks.vector(user))

    def remove_user(self, user: int) -> None:
        """De-index a user (e.g. their location became unknown)."""
        leaf = self.grid.leaf_of_user(user)
        if leaf is None:
            raise KeyError(f"user {user} is not indexed")
        self.grid.remove(user)
        self._shrink(leaf, self.landmarks.vector(user))

    def move_user(self, user: int, x: float, y: float) -> None:
        """Relocate an indexed user (paper's update protocol: deletion
        from the old cell + insertion into the new one; an intra-cell
        move touches no summaries)."""
        old_leaf = self.grid.leaf_of_user(user)
        if old_leaf is None:
            self.insert_user(user, x, y)
            return
        new_leaf = self.grid.leaf_of(x, y)
        if new_leaf == old_leaf:
            return  # footnote 2: same cell, no maintenance needed
        vector = self.landmarks.vector(user)
        self.grid.remove(user)
        self._shrink(old_leaf, vector)
        relanded = self.grid.insert(user, x, y)
        self._widen(relanded, vector)

    # -- summary maintenance helpers ------------------------------------

    def _widen(self, leaf: tuple[int, int], vector: tuple[float, ...]) -> None:
        summary = self.leaf_summaries.get(leaf)
        if summary is None:
            summary = SocialSummary(self.landmarks.m)
            self.leaf_summaries[leaf] = summary
        if not summary.widen(vector):
            return
        top = self.grid.parent_of(leaf)
        parent = self.top_summaries.get(top)
        if parent is None:
            parent = SocialSummary(self.landmarks.m)
            self.top_summaries[top] = parent
        parent.widen(vector)

    def _shrink(self, leaf: tuple[int, int], vector: tuple[float, ...]) -> None:
        summary = self.leaf_summaries[leaf]
        members = self.grid.users_in_leaf(leaf)
        if not members:
            del self.leaf_summaries[leaf]
        elif summary.touches(vector):
            lm_vector = self.landmarks.vector
            summary.replace_from(lm_vector(u) for u in members)
        else:
            # The departing vector defined no bound: nothing changes here
            # or above.
            return
        self._shrink_parent(leaf, vector)

    def _shrink_parent(self, leaf: tuple[int, int], vector: tuple[float, ...]) -> None:
        top = self.grid.parent_of(leaf)
        parent = self.top_summaries.get(top)
        if parent is None:
            return
        children = [
            self.leaf_summaries[child]
            for child in self.grid.children_of(top)
            if child in self.leaf_summaries
        ]
        if not children:
            del self.top_summaries[top]
            return
        if parent.touches(vector):
            parent.replace_from(
                vec for child in children for vec in (child.m_check, child.m_hat)
            )
