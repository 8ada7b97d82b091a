"""Whole-engine snapshots over the columnar format.

:func:`save_engine` serialises a :class:`~repro.core.engine.GeoSocialEngine`
to one snapshot directory; :func:`load_engine` warm-starts it back.
What goes to disk is exactly the columnar data plane:

=====================  ================================================
``xs``, ``ys``         :class:`LocationTable` coordinate columns
``landmark_matrix``    the ``(M, n)`` landmark distance matrix
                       (``landmark_matrix_rev`` too when directed)
``graph_indptr`` /     CSR social adjacency, in the graph's own
``graph_nbrs`` /       dtypes (``int32`` / ``int32`` / ``float64``;
``graph_wts``          older snapshots hold ``int64`` ids)
``grid_*``             the grid's cell arrays, encoding cell
                       coordinates *and* in-cell insertion order
=====================  ================================================

plus a manifest carrying the format version, the engine config (kind,
``s``, seed, alpha-normalisation constants, backend name, landmark
ids) and a sha256 per column.  Snapshots of the retired sharded engine
kind (``kind: "sharded"``) no longer load: :func:`load_engine` raises
:class:`~repro.store.StoreError` for them.

What is *not* persisted — contraction hierarchies, neighbour caches,
``bounded``'s sampled distance profiles — is runtime
state every engine rebuilds lazily; ``method="auto"`` resolves by
static rules to forward-deterministic methods, so it answers
bit-identically after a warm start.

Loading adopts columns zero-copy (``mmap_mode='c'``): the location
table, the landmark matrix and the CSR arrays map straight from disk
(``int64`` CSR ids of an older snapshot are cast once, after the range
checks), grids rebuild from their cell arrays without re-deriving
geometry.  The landmark index is
stored, so saving an engine that never needed it builds it once
(:attr:`~repro.core.engine.GeoSocialEngine.landmarks`), and a load adopts
the matrix without a build.  The aggregate index is not rebuilt on
load: like a freshly built engine, a restored one derives it from its
grid and the landmark matrix on the first ``ais`` query.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as _np

from repro.store.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    InjectedFault,
    StoreCorruptionError,
    StoreError,
    commit_dir,
    read_column,
    read_manifest,
    temp_sibling,
    write_column,
    write_manifest,
)


# -- writing ------------------------------------------------------------

def _write_engine(engine, tmp: Path) -> dict:
    """Write every column of ``engine`` into ``tmp``; returns the
    manifest body (kind, config, column checksums)."""
    columns: dict = {}

    def put(name: str, array) -> None:
        columns[name] = write_column(tmp, name, array)

    locations, graph, landmarks = engine.locations, engine.graph, engine.landmarks
    put("xs", _np.asarray(locations.xs, dtype=_np.float64))
    put("ys", _np.asarray(locations.ys, dtype=_np.float64))
    put("landmark_matrix", landmarks.matrix)
    if graph.directed:
        put("landmark_matrix_rev", landmarks.matrix_rev)
    put("graph_indptr", graph.indptr)
    put("graph_nbrs", graph.nbrs)
    put("graph_wts", graph.wts)
    users, ixs, iys = engine.grid.to_arrays()
    put("grid_users", _np.asarray(users, dtype=_np.int64))
    put("grid_ixs", _np.asarray(ixs, dtype=_np.int64))
    put("grid_iys", _np.asarray(iys, dtype=_np.int64))
    bbox = engine.grid.bbox
    norm = engine.normalization
    config = {
        "n": graph.n,
        "directed": graph.directed,
        "num_edges": graph.num_edges,
        "s": engine.s,
        "seed": engine.seed,
        "landmark_strategy": engine.landmark_strategy,
        "backend": engine.backend,
        "normalization": {"p_max": norm.p_max, "d_max": norm.d_max},
        "landmarks": [int(l) for l in landmarks.landmarks],
        "grid_bbox": [bbox.minx, bbox.miny, bbox.maxx, bbox.maxy],
    }
    return {"kind": "engine", "config": config, "columns": columns}


def save_engine(engine, path) -> Path:
    """Write a crash-consistent snapshot of ``engine`` to directory
    ``path``.

        >>> import tempfile
        >>> from repro import GeoSocialEngine, gowalla_like, save_engine, load_engine
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=60, seed=1))
        >>> path = save_engine(engine, tempfile.mkdtemp() + "/snap")
        >>> load_engine(path).graph.n
        60

    The caller is responsible for quiescing or read-locking the engine
    (:meth:`GeoSocialEngine.save` does); this function owns the
    durability protocol: temp sibling → columns fsynced → manifest
    fsynced (the commit point) → directory fsync → atomic rename.  On an :class:`InjectedFault` the temp state
    is deliberately left behind (a simulated crash); on any real error
    it is cleaned up.
    """
    from repro import __version__

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = temp_sibling(path)
    tmp.mkdir(parents=True)
    try:
        manifest = _write_engine(engine, tmp)
        manifest["format"] = FORMAT_NAME
        manifest["format_version"] = FORMAT_VERSION
        manifest["library_version"] = __version__
        write_manifest(tmp, manifest)
        commit_dir(tmp, path)
    except InjectedFault:
        raise  # simulated crash: leave the partial temp state on disk
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return path


# -- loading ------------------------------------------------------------

def _column(path, manifest: dict, name: str, *, mmap: bool, verify: bool):
    entry = manifest["columns"].get(name)
    if entry is None:
        raise StoreCorruptionError(
            f"snapshot at {path} lists no column {name!r} in its manifest"
        )
    return read_column(path, entry, mmap=mmap, verify=verify)


def _load_engine(path, manifest: dict, *, mmap: bool, verify: bool):
    """The engine a ``kind: "engine"`` manifest describes.  Config keys
    older writers added and nothing reads any more (``index_users``,
    ``default_t``, the ``sketch`` section and its ``sketch_*``
    columns) are ignored, so their snapshots load unchanged."""
    from repro.backend import resolve_backend
    from repro.core.engine import GeoSocialEngine
    from repro.core.ranking import Normalization
    from repro.graph.landmarks import LandmarkIndex
    from repro.graph.socialgraph import SocialGraph
    from repro.spatial.point import LocationTable

    config = manifest["config"]
    n = int(config["n"])
    xs = _column(path, manifest, "xs", mmap=mmap, verify=verify)
    ys = _column(path, manifest, "ys", mmap=mmap, verify=verify)
    if len(xs) != n or len(ys) != n:
        raise StoreCorruptionError(
            f"coordinate columns cover {len(xs)}/{len(ys)} users, "
            f"the manifest says n={n}"
        )
    locations = LocationTable.adopt_columns(xs, ys)

    # the graph adopts the CSR columns as they are mapped
    indptr = _column(path, manifest, "graph_indptr", mmap=mmap, verify=verify)
    nbrs = _column(path, manifest, "graph_nbrs", mmap=mmap, verify=verify)
    wts = _column(path, manifest, "graph_wts", mmap=mmap, verify=verify)
    try:
        graph = SocialGraph.from_csr(
            n,
            indptr,
            nbrs,
            wts,
            directed=bool(config["directed"]),
            num_edges=int(config["num_edges"]),
        )
    except ValueError as err:
        raise StoreCorruptionError(f"CSR columns are inconsistent: {err}") from err

    matrix = _column(path, manifest, "landmark_matrix", mmap=mmap, verify=verify)
    matrix_rev = (
        _column(path, manifest, "landmark_matrix_rev", mmap=mmap, verify=verify)
        if graph.directed
        else None
    )
    try:
        landmarks = LandmarkIndex.from_tables(
            graph, [int(l) for l in config["landmarks"]], matrix, matrix_rev
        )
    except ValueError as err:
        raise StoreCorruptionError(f"landmark tables are inconsistent: {err}") from err

    norm_cfg = config["normalization"]
    normalization = Normalization(
        p_max=float(norm_cfg["p_max"]), d_max=float(norm_cfg["d_max"])
    )
    fanout = int(config["s"])
    return GeoSocialEngine(
        graph,
        locations,
        s=fanout,
        seed=int(config["seed"]),
        normalization=normalization,
        landmark_strategy=config["landmark_strategy"],
        landmarks=landmarks,
        backend=resolve_backend(config["backend"]),
        grid=_restore_grid(path, manifest, config["grid_bbox"], fanout, verify=verify),
    )


def _restore_grid(path, manifest, bbox4, fanout, *, verify):
    """The :class:`UniformGrid` the persisted cell-array triple encodes
    (the engine derives its aggregate index from it on first use)."""
    from repro.spatial.grid import UniformGrid
    from repro.spatial.point import BBox

    users = _column(path, manifest, "grid_users", mmap=False, verify=verify)
    ixs = _column(path, manifest, "grid_ixs", mmap=False, verify=verify)
    iys = _column(path, manifest, "grid_iys", mmap=False, verify=verify)
    n = int(manifest["config"]["n"])
    if users.size and (users.min() < 0 or users.max() >= n):
        raise StoreCorruptionError(
            f"grid column grid_users references user ids outside [0, {n})"
        )
    if not (users.shape == ixs.shape == iys.shape):
        raise StoreCorruptionError(
            "grid columns grid_* have mismatched lengths "
            f"{users.shape}/{ixs.shape}/{iys.shape}"
        )
    try:
        bbox = BBox(*(float(v) for v in bbox4))
        return UniformGrid.from_arrays(bbox, fanout * fanout, users, ixs, iys)
    except (TypeError, ValueError) as err:
        raise StoreCorruptionError(f"grid columns grid_* are invalid: {err}") from err


def load_engine(path, *, mmap: bool = True, verify: bool = True):
    """Warm-start the engine stored at ``path``.  ``verify=True`` checks
    every column's sha256; ``mmap=True`` maps the coordinate and
    landmark columns copy-on-write.

        >>> import tempfile
        >>> from repro import GeoSocialEngine, gowalla_like, load_engine
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=60, seed=1))
        >>> path = engine.save(tempfile.mkdtemp() + "/snap")
        >>> warm = load_engine(path)
        >>> [nb.user for nb in warm.query(user=0, k=3, alpha=0.3)] == \\
        ...     [nb.user for nb in engine.query(user=0, k=3, alpha=0.3)]
        True
    """
    path = Path(path)
    manifest = read_manifest(path)
    kind = manifest.get("kind")
    if kind == "engine":
        return _load_engine(path, manifest, mmap=mmap, verify=verify)
    if kind == "sharded":
        raise StoreError(
            f"snapshot at {path} holds a sharded engine, a kind that is no longer "
            "loadable; re-save it from a GeoSocialEngine"
        )
    raise StoreCorruptionError(f"manifest at {path} names unknown engine kind {kind!r}")
