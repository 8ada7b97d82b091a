"""Single-level uniform grid over user locations.

A regular grid with ``resolution x resolution`` cells over the bounding
box of the data.  This is the index used by the Spatial First Approach
(paper Section 4.1): it supports O(1) location updates and, together
with :mod:`repro.spatial.nn`, incremental branch-and-bound nearest
neighbour retrieval.

Points that fall outside the construction bounding box (possible after
location updates) are clamped to the border cells, which keeps lookups
correct: a cell's spatial extent is only used to compute *lower* bounds
of distances, and border cells are conceptually unbounded outward.
"""

from __future__ import annotations

from typing import Iterator

import numpy as _np

from repro.spatial.point import BBox, LocationTable

_EMPTY_IDS = _np.empty(0, dtype=_np.intp)


class UniformGrid:
    """Uniform grid mapping cell coordinates to lists of user ids.

    Cell membership is kept in Python lists (O(1) append on insert);
    :meth:`ids_in` serves the same membership as a cached contiguous
    id-array — the columnar form the vectorized kernels of
    :mod:`repro.backend` consume — invalidated per cell on mutation.
    """

    __slots__ = ("bbox", "nx", "ny", "cell_w", "cell_h", "cells", "_cell_of_user", "_ids_cache")

    def __init__(self, bbox: BBox, resolution: int) -> None:
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        self.bbox = bbox
        self.nx = resolution
        self.ny = resolution
        # Guard against degenerate (zero-extent) boxes.
        self.cell_w = (bbox.width / self.nx) or 1.0
        self.cell_h = (bbox.height / self.ny) or 1.0
        #: sparse storage: (ix, iy) -> list of user ids
        self.cells: dict[tuple[int, int], list[int]] = {}
        self._cell_of_user: dict[int, tuple[int, int]] = {}
        #: per-cell id-array cache (see ids_in)
        self._ids_cache: dict[tuple[int, int], object] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        locations: LocationTable,
        resolution: int,
    ) -> "UniformGrid":
        """Build a grid over every located user in ``locations``: the
        cells and in-cell order (ascending id) of inserting them one by
        one, in one vectorised pass.  With no located user the grid is
        empty, over the point box at the origin; the first insert lands
        in a (clamped) border cell."""
        xs, ys = locations.columns()
        users = _np.flatnonzero(~_np.isnan(xs))
        if not users.size:
            return cls(BBox(0.0, 0.0, 0.0, 0.0), resolution)
        grid = cls(locations.bbox(users), resolution)
        box = grid.bbox
        # cell_of, per column: truncate toward zero, then clamp
        ixs = ((xs[users] - box.minx) / grid.cell_w).astype(_np.intp).clip(0, grid.nx - 1)
        iys = ((ys[users] - box.miny) / grid.cell_h).astype(_np.intp).clip(0, grid.ny - 1)
        keys = ixs * grid.ny + iys
        order = _np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = _np.flatnonzero(_np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
        bounds = _np.append(starts, len(keys)).tolist()
        coords = [divmod(key, grid.ny) for key in sorted_keys[starts].tolist()]
        members = users[order].tolist()
        # cells in the order their first (smallest) member opened them
        for cell in _np.argsort(order[starts]).tolist():
            grid.cells[coords[cell]] = members[bounds[cell]:bounds[cell + 1]]
        cell_of = _np.searchsorted(sorted_keys[starts], keys).tolist()
        grid._cell_of_user = dict(zip(users.tolist(), map(coords.__getitem__, cell_of)))
        return grid

    def copy(self) -> "UniformGrid":
        """An independent grid with the same cells, member lists (in
        order) and extent."""
        grid = type(self)(self.bbox, self.nx)
        grid.cells = {coords: list(members) for coords, members in self.cells.items()}
        grid._cell_of_user = dict(self._cell_of_user)
        return grid

    # -- geometry ---------------------------------------------------------

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Cell coordinates containing point ``(x, y)``, clamped to the
        grid extent.  Clamped before the integer cast: over a
        subnormal-sized cell the offset divides out to ``inf``."""
        ix = int(min(max((x - self.bbox.minx) / self.cell_w, 0.0), self.nx - 1))
        iy = int(min(max((y - self.bbox.miny) / self.cell_h, 0.0), self.ny - 1))
        return ix, iy

    def cell_bbox(self, ix: int, iy: int) -> BBox:
        """Spatial extent of cell ``(ix, iy)``."""
        minx = self.bbox.minx + ix * self.cell_w
        miny = self.bbox.miny + iy * self.cell_h
        return BBox(minx, miny, minx + self.cell_w, miny + self.cell_h)

    def cell_mindist(self, ix: int, iy: int, x: float, y: float) -> float:
        """Lower bound on the distance from ``(x, y)`` to any point in
        cell ``(ix, iy)``.  Border cells are treated as unbounded outward
        so that clamped out-of-box points never violate the bound."""
        if (ix == 0 or ix == self.nx - 1) and not self.bbox.contains(x, y):
            # Conservative: out-of-box geometry only arises via clamped
            # insertions; bound from the inner edges only.
            return 0.0
        if (iy == 0 or iy == self.ny - 1) and not self.bbox.contains(x, y):
            return 0.0
        return self.cell_bbox(ix, iy).mindist(x, y)

    # -- contents ---------------------------------------------------------

    def insert(self, user: int, x: float, y: float) -> tuple[int, int]:
        """Add ``user`` at ``(x, y)``; returns the cell it landed in."""
        if user in self._cell_of_user:
            raise ValueError(f"user {user} already present; use move()")
        coords = self.cell_of(x, y)
        self.cells.setdefault(coords, []).append(user)
        self._cell_of_user[user] = coords
        self._ids_cache.pop(coords, None)
        return coords

    def remove(self, user: int) -> tuple[int, int]:
        """Remove ``user``; returns the cell it was removed from."""
        coords = self._cell_of_user.pop(user)
        members = self.cells[coords]
        members.remove(user)
        if not members:
            del self.cells[coords]
        self._ids_cache.pop(coords, None)
        return coords

    def move(self, user: int, x: float, y: float) -> tuple[tuple[int, int], tuple[int, int]]:
        """Relocate ``user``; returns ``(old_cell, new_cell)``.

        A move within the same cell only requires updating the caller's
        coordinate table, mirroring the paper's footnote 2.
        """
        old = self._cell_of_user[user]
        new = self.cell_of(x, y)
        if new != old:
            self.remove(user)
            self.cells.setdefault(new, []).append(user)
            self._cell_of_user[user] = new
            self._ids_cache.pop(new, None)
        return old, new

    def cell_of_user(self, user: int) -> tuple[int, int] | None:
        return self._cell_of_user.get(user)

    def users_in(self, ix: int, iy: int) -> list[int]:
        return self.cells.get((ix, iy), [])

    def ids_in(self, ix: int, iy: int):
        """Cell membership as a contiguous ``intp`` id-array (cached;
        rebuilt lazily after a mutation touches the cell)."""
        coords = (ix, iy)
        members = self.cells.get(coords)
        if members is None:
            return _EMPTY_IDS
        ids = self._ids_cache.get(coords)
        if ids is None:
            ids = _np.array(members, dtype=_np.intp)
            self._ids_cache[coords] = ids
        return ids

    def nonempty_cells(self) -> Iterator[tuple[int, int]]:
        return iter(self.cells)

    def __len__(self) -> int:
        """Number of indexed users."""
        return len(self._cell_of_user)

    def __contains__(self, user: int) -> bool:
        return user in self._cell_of_user

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
