"""Single-level uniform grid over user locations.

A regular grid with ``resolution x resolution`` cells over the bounding
box of the data.  This is the index used by the Spatial First Approach
(paper Section 4.1): together with :mod:`repro.spatial.nn`, it serves
incremental branch-and-bound nearest neighbour retrieval.  The paper
updates it in place on every move; here a grid is built once over a
location table and never changes, and the engine drops it on a
location update (its next reader builds another).

Points that fall outside the bounding box are clamped to the border
cells, which keeps lookups correct: a cell's spatial extent is only
used to compute *lower* bounds of distances, and border cells are
conceptually unbounded outward.
"""

from __future__ import annotations

from typing import Iterator

import numpy as _np

from repro.spatial.point import BBox, LocationTable

_EMPTY_IDS = _np.empty(0, dtype=_np.intp)


def _cells(values, lo: float, size: float, cells: int):
    """The cell index of every entry of a coordinate column inside the
    box: its offset ``(value - lo) / size`` in cells, clamped to
    ``[0, cells)`` (the box's far edge divides out to ``cells``) and
    truncated."""
    return ((values - lo) / size).clip(0, cells - 1).astype(_np.intp)


class UniformGrid:
    """Uniform grid mapping cell coordinates to the ids of their users.

    Each cell holds one ascending ``intp`` id-array, a slice of the
    build's sorted id column — the columnar form the vectorized kernels
    of :mod:`repro.backend` consume.
    """

    __slots__ = ("bbox", "nx", "ny", "cell_w", "cell_h", "cells", "_size")

    def __init__(self, bbox: BBox, resolution: int) -> None:
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        self.bbox = bbox
        self.nx = resolution
        self.ny = resolution
        # one cell's extent (the input domain keeps a span within
        # 2**501), and 1.0 over a zero-extent box
        self.cell_w = (bbox.maxx - bbox.minx) / self.nx or 1.0
        self.cell_h = (bbox.maxy - bbox.miny) / self.ny or 1.0
        #: sparse storage: (ix, iy) -> ascending id-array of its users
        self.cells: dict[tuple[int, int], _np.ndarray] = {}
        #: number of indexed users
        self._size = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        locations: LocationTable,
        resolution: int,
    ) -> "UniformGrid":
        """Build a grid over every located user in ``locations``, in one
        vectorised pass: members in ascending id within a cell, and
        cells in the order of their smallest member.  With no located
        user the grid is empty, over the point box at the origin."""
        xs, ys = locations.columns()
        users = _np.flatnonzero(~_np.isnan(xs))
        if not users.size:
            return cls(BBox(0.0, 0.0, 0.0, 0.0), resolution)
        grid = cls(locations.bbox(users), resolution)
        box = grid.bbox
        # cell_of, per column: clamp, then truncate toward zero
        ixs = _cells(xs[users], box.minx, grid.cell_w, grid.nx)
        iys = _cells(ys[users], box.miny, grid.cell_h, grid.ny)
        keys = ixs * grid.ny + iys
        order = _np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = _np.flatnonzero(_np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
        bounds = _np.append(starts, len(keys)).tolist()
        coords = [divmod(key, grid.ny) for key in sorted_keys[starts].tolist()]
        members = users[order]
        # cells in the order their first (smallest) member opened them
        for cell in _np.argsort(order[starts]).tolist():
            grid.cells[coords[cell]] = members[bounds[cell]:bounds[cell + 1]]
        grid._size = len(members)
        return grid

    # -- geometry ---------------------------------------------------------

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Cell coordinates containing point ``(x, y)``, clamped to the
        grid extent.  Clamped before the integer cast: over a
        subnormal-sized cell the offset divides out to ``inf``."""
        box = self.bbox
        ix = int(min(max((x - box.minx) / self.cell_w, 0.0), self.nx - 1))
        iy = int(min(max((y - box.miny) / self.cell_h, 0.0), self.ny - 1))
        return ix, iy

    def cell_bbox(self, ix: int, iy: int) -> BBox:
        """Spatial extent of cell ``(ix, iy)``.  The last cell on each
        axis reaches at least the box edge, so every user
        :meth:`cell_of` puts in a cell lies in its extent (or, clamped,
        outward of the grid)."""
        box = self.bbox
        minx = box.minx + ix * self.cell_w
        miny = box.miny + iy * self.cell_h
        maxx = minx + self.cell_w
        maxy = miny + self.cell_h
        if ix == self.nx - 1 and maxx < box.maxx:
            maxx = box.maxx
        if iy == self.ny - 1 and maxy < box.maxy:
            maxy = box.maxy
        return BBox(minx, miny, maxx, maxy)

    def cell_mindist(self, ix: int, iy: int, x: float, y: float) -> float:
        """Lower bound on the distance from ``(x, y)`` to any point in
        cell ``(ix, iy)``.  Border cells are treated as unbounded outward
        so that clamped out-of-box points never violate the bound."""
        if (ix == 0 or ix == self.nx - 1) and not self.bbox.contains(x, y):
            # Conservative: bound from the inner edges only.
            return 0.0
        if (iy == 0 or iy == self.ny - 1) and not self.bbox.contains(x, y):
            return 0.0
        return self.cell_bbox(ix, iy).mindist(x, y)

    # -- contents ---------------------------------------------------------

    def ids_in(self, ix: int, iy: int) -> _np.ndarray:
        """The users in cell ``(ix, iy)``, an ascending ``intp`` id-array."""
        return self.cells.get((ix, iy), _EMPTY_IDS)

    def __len__(self) -> int:
        """Number of indexed users."""
        return self._size

    # -- ring iteration (used by incremental NN) --------------------------

    def ring_cells(self, center: tuple[int, int], radius: int) -> Iterator[tuple[int, int]]:
        """Nonempty cells at exactly Chebyshev distance ``radius`` from
        ``center``, clipped to the grid."""
        cx, cy = center
        if radius == 0:
            if (cx, cy) in self.cells:
                yield (cx, cy)
            return
        x_lo, x_hi = cx - radius, cx + radius
        y_lo, y_hi = cy - radius, cy + radius
        for ix in range(max(x_lo, 0), min(x_hi, self.nx - 1) + 1):
            for iy in (y_lo, y_hi):
                if 0 <= iy < self.ny and (ix, iy) in self.cells:
                    yield (ix, iy)
        for iy in range(max(y_lo + 1, 0), min(y_hi - 1, self.ny - 1) + 1):
            for ix in (x_lo, x_hi):
                if 0 <= ix < self.nx and (ix, iy) in self.cells:
                    yield (ix, iy)

    def max_ring_radius(self, center: tuple[int, int]) -> int:
        """Largest ring radius that still intersects the grid."""
        cx, cy = center
        return max(cx, self.nx - 1 - cx, cy, self.ny - 1 - cy)

    def ring_lower_bound(self, radius: int) -> float:
        """Lower bound on the distance from a point in the center cell to
        any cell at Chebyshev ring ``radius``: at least ``radius - 1``
        full cells separate them."""
        if radius <= 1:
            return 0.0
        return (radius - 1) * min(self.cell_w, self.cell_h)
