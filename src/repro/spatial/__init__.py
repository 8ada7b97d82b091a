"""Spatial substrate: points, bounding boxes, grid indexes, NN search.

The paper keeps user locations in a main-memory regular grid, updated
in place on every move, and retrieves nearest neighbours with a
branch-and-bound incremental search (the combination recommended for
dynamic in-memory spatial data, its reference [35]).  Here the grid
serves only the paper's named methods and is rebuilt by its next
reader after a move.  This package provides:

- :mod:`repro.spatial.point` — Euclidean geometry, bounding boxes, and
  the :class:`~repro.spatial.point.LocationTable` storing (possibly
  missing) user locations;
- :mod:`repro.spatial.grid` — a single-level uniform grid, built once
  over a location table;
- :mod:`repro.spatial.nn` — incremental (distance-ordered) nearest
  neighbour search over the grid.

The paper's two-level grid (Section 5.1) is this grid at resolution
``s²`` read in ``s x s`` blocks: :mod:`repro.index.aggregate`.
"""

from repro.spatial.grid import UniformGrid
from repro.spatial.nn import IncrementalNearestNeighbors
from repro.spatial.point import BBox, LocationTable, euclidean

__all__ = [
    "BBox",
    "LocationTable",
    "euclidean",
    "UniformGrid",
    "IncrementalNearestNeighbors",
]
