"""Euclidean geometry primitives and the columnar user location table.

Locations live in a flat 2-D Euclidean space.  Following the paper
(Section 6, footnote 3), some users have *no known location* and are
treated as infinitely far away from everybody; :class:`LocationTable`
encodes a missing location as ``NaN`` coordinates and reports ``inf``
distances for it.

Coordinates are stored *columnar*: two contiguous ``float64`` arrays
indexed by user id, so the kernels of :mod:`repro.backend` can
evaluate whole candidate arrays in one call.  A location is two
coordinates in the input domain (:mod:`repro.utils.validation`) or two
``NaN`` ones: a table refuses anything else, however it is written.

**One distance primitive.**  Every Euclidean distance in this codebase
is ``sqrt(dx² + dy²)`` — deliberately *not* ``math.hypot``.  The two
can differ by 1 ulp, and ``numpy.hypot`` differs from ``math.hypot`` on
some platforms; ``sqrt``, ``*`` and ``+`` are IEEE-exact operations, so
a scalar loop and a vectorized kernel produce bit-identical distances
(and therefore bit-identical rankings and tie-breaks).  Inside the
domain the square never overflows (``dx² + dy² <= 2**1003``), so two
located users are always a finite distance apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as _np

from repro.utils.validation import check_coordinate, check_coordinate_columns

INF = math.inf
_sqrt = math.sqrt


def euclidean(ax: float, ay: float, bx: float, by: float) -> float:
    """Euclidean distance between points ``(ax, ay)`` and ``(bx, by)``
    (``sqrt(dx² + dy²)``; see the module docstring for why not
    ``hypot``)."""
    dx = ax - bx
    dy = ay - by
    return _sqrt(dx * dx + dy * dy)


@dataclass(frozen=True)
class BBox:
    """Axis-aligned bounding rectangle ``[minx, maxx] x [miny, maxy]``.

        >>> from repro import BBox
        >>> box = BBox(0.0, 0.0, 2.0, 1.0)
        >>> box.contains(1.0, 0.5), box.mindist(3.0, 0.5)
        (True, 1.0)
        >>> round(box.diagonal, 4)
        2.2361
    """

    minx: float
    miny: float
    maxx: float
    maxy: float

    def __post_init__(self) -> None:
        if self.maxx < self.minx or self.maxy < self.miny:
            raise ValueError(f"degenerate bbox {self!r}")

    @property
    def width(self) -> float:
        return self.maxx - self.minx

    @property
    def height(self) -> float:
        return self.maxy - self.miny

    @property
    def diagonal(self) -> float:
        """Length of the box diagonal — the maximum pairwise distance of
        any two points inside the box (used as the spatial normaliser
        ``D_max``)."""
        w = self.width
        h = self.height
        return _sqrt(w * w + h * h)

    def contains(self, x: float, y: float) -> bool:
        return self.minx <= x <= self.maxx and self.miny <= y <= self.maxy

    def mindist(self, x: float, y: float) -> float:
        """Minimum Euclidean distance from ``(x, y)`` to any point of the
        box (0 when the point lies inside) — the bound ``ď(u_q, C)`` of
        the paper's Section 5.1."""
        dx = max(self.minx - x, 0.0, x - self.maxx)
        dy = max(self.miny - y, 0.0, y - self.maxy)
        if dx == 0.0 and dy == 0.0:
            return 0.0
        return _sqrt(dx * dx + dy * dy)


class LocationTable:
    """Current (last reported) locations for ``n`` users, stored as two
    columnar coordinate arrays.

    Coordinates live in two flat ``float64`` columns indexed by user id
    (:attr:`xs`, :attr:`ys`); a missing location is a ``NaN`` pair.  The
    table is mutable — :meth:`set` supports the dynamic-location setting
    of the paper — and cheap to snapshot.  Construct it from coordinate
    columns (lists, tuples, or NumPy arrays, uniformly) with
    :meth:`from_columns`, or adopt pre-built ones without a copy with
    :meth:`adopt_columns`.

        >>> from repro import LocationTable
        >>> table = LocationTable.empty(3)
        >>> table.set(0, 0.1, 0.2); table.set(1, 0.4, 0.6)
        >>> table.n_located, round(table.distance(0, 1), 3)
        (2, 0.5)
        >>> table.distance(0, 2)   # user 2 has no location
        inf
    """

    __slots__ = ("xs", "ys", "_n_located")

    def __init__(self, xs, ys) -> None:
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        #: columnar storage: contiguous float64, NaN = missing
        self.xs = _np.array(xs, dtype=_np.float64)
        self.ys = _np.array(ys, dtype=_np.float64)
        self._n_located = check_coordinate_columns(self.xs, self.ys)

    # -- construction -------------------------------------------------

    @classmethod
    def from_columns(cls, xs: Sequence[float], ys: Sequence[float]) -> "LocationTable":
        """Build a table from two coordinate columns (any sequence or
        array type; the data is copied into contiguous storage).

            >>> from repro import LocationTable
            >>> table = LocationTable.from_columns([0.0, 0.5], [0.0, 0.5])
            >>> table.n_located
            2
        """
        return cls(xs, ys)

    @classmethod
    def adopt_columns(cls, xs, ys) -> "LocationTable":
        """Adopt two pre-built ``float64`` coordinate columns *without
        copying* — the warm-start path of :mod:`repro.store`, where the
        columns are memory-mapped (copy-on-write) ``.npy`` files and a
        copy would defeat the point of mmap.

        The caller guarantees dtype/contiguity (``np.load`` does); the
        shape agreement and the pairs are checked here, as the
        constructor checks them.
        """
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        table = object.__new__(cls)
        table._n_located = check_coordinate_columns(xs, ys)
        table.xs = xs
        table.ys = ys
        return table

    @classmethod
    def empty(cls, n: int) -> "LocationTable":
        nan = math.nan
        return cls([nan] * n, [nan] * n)

    @classmethod
    def from_dict(cls, n: int, locations: dict[int, tuple[float, float]]) -> "LocationTable":
        table = cls.empty(n)
        for user, (x, y) in locations.items():
            table.set(user, x, y)
        return table

    # -- basic accessors ----------------------------------------------

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def n_located(self) -> int:
        """Number of users with a known location."""
        return self._n_located

    @property
    def coverage(self) -> float:
        """Fraction of users with a known location."""
        n = len(self.xs)
        return self._n_located / n if n else 0.0

    def has_location(self, user: int) -> bool:
        x = self.xs[user]
        return x == x

    def get(self, user: int) -> tuple[float, float] | None:
        x = self.xs[user]
        if x != x:
            return None
        return (float(x), float(self.ys[user]))

    def located_users(self) -> Iterator[int]:
        """Ids of users with a known location, in id order."""
        return iter(_np.nonzero(~_np.isnan(self.xs))[0].tolist())

    def columns(self) -> tuple[Sequence[float], Sequence[float]]:
        """The raw coordinate columns ``(xs, ys)`` — contiguous
        ``float64`` arrays.  This is the zero-copy feed for
        :mod:`repro.backend` kernels; treat it as read-only and mutate
        through :meth:`set`/:meth:`clear`."""
        return self.xs, self.ys

    # -- geometry ------------------------------------------------------

    def distance(self, u: int, v: int) -> float:
        """Euclidean distance between users ``u`` and ``v``; ``inf`` if
        either location is unknown.  Python floats, not NumPy
        scalars."""
        xs = self.xs
        ux = xs.item(u)
        vx = xs.item(v)
        if ux != ux or vx != vx:
            return INF
        dx = ux - vx
        dy = self.ys.item(u) - self.ys.item(v)
        return _sqrt(dx * dx + dy * dy)

    def bbox(self, users: Iterable[int] | None = None) -> BBox:
        """Bounding box of all known locations (or, with ``users``, of
        the located users in that subset — the extent a spatially
        partitioned index covers).

        One vectorized ``nanmin``/``nanmax`` pass over the coordinate
        columns — no per-user scan.
        """
        if users is None:
            xs, ys = self.xs, self.ys
        else:
            ids = (
                users if isinstance(users, _np.ndarray) else _np.fromiter(users, dtype=_np.intp)
            )
            xs = self.xs[ids]
            ys = self.ys[ids]
        if xs.size == 0 or _np.isnan(xs).all():
            raise ValueError("cannot compute bbox of an empty collection")
        # a table holds no half-missing pair, so neither column is all-NaN
        return BBox(
            float(_np.nanmin(xs)), float(_np.nanmin(ys)), float(_np.nanmax(xs)), float(_np.nanmax(ys))
        )

    # -- mutation ------------------------------------------------------

    def set(self, user: int, x: float, y: float) -> None:
        """Set/overwrite the location of ``user``: two coordinates in the
        domain (forget one with :meth:`clear`)."""
        x, y = check_coordinate("x", x), check_coordinate("y", y)
        if not self.has_location(user):
            self._n_located += 1
        self.xs[user] = x
        self.ys[user] = y

    def clear(self, user: int) -> None:
        """Forget the location of ``user``."""
        if self.has_location(user):
            self._n_located -= 1
        self.xs[user] = math.nan
        self.ys[user] = math.nan

    def copy(self) -> "LocationTable":
        return LocationTable.from_columns(self.xs, self.ys)
