"""The columnar data plane: :class:`NumpyKernels`.

The SSRQ hot loops reduce to three primitives — Euclidean distance to
the query point, ALT landmark lower bounds, and the α-blended rank
score — plus a handful of bulk reductions (top-k selection, bbox and
social-summary envelopes) and the dense social-distance column of one
source vertex.  :class:`~repro.backend.numpy_backend.NumpyKernels`
evaluates each over the contiguous columns the data layer stores
(:meth:`~repro.spatial.point.LocationTable.columns`,
:attr:`~repro.graph.landmarks.LandmarkIndex.matrix`,
:meth:`~repro.spatial.grid.UniformGrid.ids_in`), with scipy's Dijkstra
behind ``sssp_column``.  Every engine holds one instance
(``engine.kernels``); there is no other backend to choose.
"""

from __future__ import annotations

from repro.backend.numpy_backend import NumpyKernels

__all__ = ["NumpyKernels"]
