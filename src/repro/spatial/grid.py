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

from typing import Iterable, Iterator

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
        """Build a grid over every located user in ``locations``."""
        members = list(locations.located_users())
        grid = cls(locations.bbox(members), resolution)
        xs, ys = locations.xs, locations.ys
        for user in members:
            grid.insert(user, xs[user], ys[user])
        return grid

    # -- persistence ------------------------------------------------------

    def to_arrays(self) -> tuple[list[int], list[int], list[int]]:
        """Flatten the grid contents to three parallel columns
        ``(users, ixs, iys)`` — the columnar image :mod:`repro.store`
        persists.  Cells are emitted in sorted coordinate order and
        members in their in-cell insertion order, so
        ``from_arrays(grid.to_arrays())`` reproduces every member list
        exactly (cell iteration order aside, which no search depends
        on beyond the sorted traversal seeding of the AIS index).
        """
        users: list[int] = []
        ixs: list[int] = []
        iys: list[int] = []
        for (ix, iy) in sorted(self.cells):
            for user in self.cells[(ix, iy)]:
                users.append(user)
                ixs.append(ix)
                iys.append(iy)
        return users, ixs, iys

    @classmethod
    def from_arrays(
        cls,
        bbox: BBox,
        resolution: int,
        users: Iterable[int],
        ixs: Iterable[int],
        iys: Iterable[int],
    ) -> "UniformGrid":
        """Rebuild a grid from :meth:`to_arrays` columns without
        re-deriving cell coordinates from locations.  Preserves the
        per-cell member order the arrays encode."""
        grid = cls(bbox, resolution)
        cells = grid.cells
        cell_of_user = grid._cell_of_user
        for user, ix, iy in zip(users, ixs, iys):
            user = int(user)
            coords = (int(ix), int(iy))
            if not (0 <= coords[0] < grid.nx and 0 <= coords[1] < grid.ny):
                raise ValueError(f"cell {coords} out of range {grid.nx}x{grid.ny}")
            if user in cell_of_user:
                raise ValueError(f"user {user} appears twice in grid arrays")
            cells.setdefault(coords, []).append(user)
            cell_of_user[user] = coords
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
        grid extent."""
        ix = int((x - self.bbox.minx) / self.cell_w)
        iy = int((y - self.bbox.miny) / self.cell_h)
        if ix < 0:
            ix = 0
        elif ix >= self.nx:
            ix = self.nx - 1
        if iy < 0:
            iy = 0
        elif iy >= self.ny:
            iy = self.ny - 1
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
