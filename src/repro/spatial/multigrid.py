"""Multi-level regular grid: the spatial skeleton of the AIS index.

The paper's aggregate index (Section 5.1) is a multi-level regular grid
in which every internal node is parent to ``s x s`` nodes of the level
below, and only the lowest two levels of the hierarchy are materialised
(footnote 1).  Concretely:

- the *top* level partitions the data bounding box into ``s x s`` nodes;
- each top node splits into ``s x s`` *leaf* cells, for a leaf
  resolution of ``s^2 x s^2``.

Cells are stored sparsely; empty cells occupy no memory and are never
visited by a search.  The paper updates the structure in place on every
move (deletion from the old leaf, insertion into the new one); here it
is built once over a location table, like its leaf grid, and the engine
drops it on a location update.
"""

from __future__ import annotations

from typing import Iterator

from repro.spatial.grid import UniformGrid
from repro.spatial.point import BBox, LocationTable


class MultiLevelGrid:
    """Two materialised levels of a regular grid hierarchy.

    Leaf cells are addressed by ``(ix, iy)`` at resolution ``s*s`` per
    axis; top nodes by ``(tx, ty)`` at resolution ``s`` per axis, with
    ``(tx, ty) = (ix // s, iy // s)``.
    """

    __slots__ = ("s", "leaf_grid")

    def __init__(self, bbox: BBox, s: int) -> None:
        if s < 1:
            raise ValueError(f"fanout s must be >= 1, got {s}")
        self.s = s
        self.leaf_grid = UniformGrid(bbox, s * s)

    @classmethod
    def build(
        cls,
        locations: LocationTable,
        s: int,
    ) -> "MultiLevelGrid":
        """Index every located user (:meth:`UniformGrid.build` at the
        leaf resolution)."""
        return cls.from_grid(UniformGrid.build(locations, s * s), s)

    @classmethod
    def from_grid(cls, leaf_grid: UniformGrid, s: int) -> "MultiLevelGrid":
        """Adopt an already-populated leaf grid (the engine's, which
        neither mutates).  The leaf resolution must be ``s * s``."""
        if leaf_grid.nx != s * s or leaf_grid.ny != s * s:
            raise ValueError(
                f"leaf grid resolution {leaf_grid.nx}x{leaf_grid.ny} != {s * s}x{s * s}"
            )
        grid = object.__new__(cls)
        grid.s = s
        grid.leaf_grid = leaf_grid
        return grid

    # -- addressing -----------------------------------------------------

    @property
    def bbox(self) -> BBox:
        return self.leaf_grid.bbox

    def leaf_of(self, x: float, y: float) -> tuple[int, int]:
        return self.leaf_grid.cell_of(x, y)

    def parent_of(self, leaf: tuple[int, int]) -> tuple[int, int]:
        return (leaf[0] // self.s, leaf[1] // self.s)

    def children_of(self, top: tuple[int, int]) -> Iterator[tuple[int, int]]:
        """Nonempty leaf children of top node ``top``."""
        bx, by = top[0] * self.s, top[1] * self.s
        cells = self.leaf_grid.cells
        for dx in range(self.s):
            for dy in range(self.s):
                coords = (bx + dx, by + dy)
                if coords in cells:
                    yield coords

    def top_bbox(self, top: tuple[int, int]) -> BBox:
        """The extent of top node ``top``: from its first leaf's low
        corner to its last leaf's high corner."""
        s = self.s
        first = self.leaf_grid.cell_bbox(top[0] * s, top[1] * s)
        last = self.leaf_grid.cell_bbox(top[0] * s + s - 1, top[1] * s + s - 1)
        return BBox(first.minx, first.miny, last.maxx, last.maxy)

    def leaf_bbox(self, leaf: tuple[int, int]) -> BBox:
        return self.leaf_grid.cell_bbox(leaf[0], leaf[1])

    def nonempty_tops(self) -> list[tuple[int, int]]:
        """Top nodes that contain at least one user (sorted, for
        deterministic traversal seeding)."""
        tops = {self.parent_of(leaf) for leaf in self.leaf_grid.cells}
        return sorted(tops)

    # -- contents ---------------------------------------------------------

    def users_in_leaf(self, leaf: tuple[int, int]) -> list[int]:
        return self.leaf_grid.users_in(leaf[0], leaf[1])

    def ids_in_leaf(self, leaf: tuple[int, int]):
        """Leaf membership as a cached contiguous id-array (see
        :meth:`UniformGrid.ids_in`)."""
        return self.leaf_grid.ids_in(leaf[0], leaf[1])

    def __len__(self) -> int:
        return len(self.leaf_grid)
