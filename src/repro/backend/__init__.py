"""Pluggable columnar data-plane backends.

The SSRQ hot loops reduce to three scalar primitives — Euclidean
distance to the query point, ALT landmark lower bounds, and the
α-blended rank score — plus a handful of bulk reductions (bbox and
social-summary envelopes, top-k selection).  This package lifts them
behind the :class:`~repro.backend.base.Kernels` protocol with two
interchangeable implementations:

- :class:`~repro.backend.base.PythonKernels` — the original scalar
  loops, extracted verbatim (the semantics oracle);
- :class:`~repro.backend.numpy_backend.NumpyKernels` — vectorized over
  the contiguous columns the data layer stores
  (:meth:`~repro.spatial.point.LocationTable.columns`,
  :attr:`~repro.graph.landmarks.LandmarkIndex.matrix`,
  :meth:`~repro.spatial.grid.UniformGrid.ids_in`).

Both produce bit-identical scores and rankings (tie-breaks included);
see :mod:`repro.backend.base` for why that is achievable and the
backend-equivalence test suite for where it is pinned.

Backend choice is resolved **once** per engine via
:func:`resolve_backend` and propagated through rebuilds
(``with_graph``/``rebuild_engine``).
"""

from __future__ import annotations

import os

from repro.backend.base import Kernels, PythonKernels
from repro.backend.numpy_backend import NumpyKernels

#: environment override consulted when a backend is requested as "auto"
BACKEND_ENV_VAR = "REPRO_BACKEND"

_BACKEND_NAMES = ("auto", "numpy", "python")


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`resolve_backend`."""
    return _BACKEND_NAMES


def resolve_backend(backend: "str | Kernels" = "auto") -> Kernels:
    """Resolve a backend request to a :class:`Kernels` instance.

    Resolution order: an explicit name (or ready-made kernels object)
    wins; ``"auto"`` defers to the ``REPRO_BACKEND`` environment
    variable when set; otherwise the NumPy backend is used.

        >>> from repro import resolve_backend
        >>> resolve_backend("python").name
        'python'
        >>> resolve_backend(resolve_backend("python")).name   # idempotent
        'python'
    """
    if not isinstance(backend, str):
        if isinstance(backend, Kernels):
            return backend
        raise TypeError(f"backend must be a name or Kernels instance, got {backend!r}")
    name = backend
    if name == "auto":
        name = os.environ.get(BACKEND_ENV_VAR, "auto") or "auto"
    if name not in _BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; choose from {available_backends()} "
            f"(or set ${BACKEND_ENV_VAR} accordingly)"
        )
    return PythonKernels() if name == "python" else NumpyKernels()


__all__ = [
    "Kernels",
    "PythonKernels",
    "NumpyKernels",
    "resolve_backend",
    "available_backends",
    "BACKEND_ENV_VAR",
]
