"""Whole-engine snapshots over the columnar format.

:func:`save_engine` serialises a :class:`~repro.core.engine.GeoSocialEngine`
or :class:`~repro.shard.ShardedGeoSocialEngine` to one snapshot
directory; :func:`load_engine` warm-starts either kind back.  What goes
to disk is exactly the columnar data plane:

=====================  ================================================
``xs``, ``ys``         :class:`LocationTable` coordinate columns
``landmark_matrix``    the ``(M, n)`` landmark distance matrix
                       (``landmark_matrix_rev`` too when directed)
``graph_indptr`` /     CSR social adjacency
``graph_nbrs`` /
``graph_wts``
``grid_*``             grid cell arrays — one triple per engine (per
                       shard for the sharded kind), encoding cell
                       coordinates *and* in-cell insertion order
``sketch_*``           optional social-distance sketch CSR columns
                       (only when the engine has materialised one;
                       older snapshots simply lack them and the sketch
                       rebuilds lazily on first use)
=====================  ================================================

plus a manifest carrying the format version, the engine config (kind,
``s``/``shard_s``, seed, alpha-normalisation constants, backend name,
landmark ids, partitioner layout) and a sha256 per column.

What is *not* persisted — planner cost tables, contraction
hierarchies, neighbour caches, worker pools — is runtime state every
engine rebuilds lazily; the default planner candidates are all
forward-deterministic methods, so even ``method="auto"`` answers
bit-identically after a warm start.

Loading adopts columns zero-copy (``mmap_mode='c'``): the location
table and the landmark matrix map straight from disk, the CSR arrays
become the flat Python lists Dijkstra needs, grids rebuild from their
cell arrays without re-deriving geometry.  The aggregate index is not
rebuilt on load: like a freshly built engine, a restored one derives it
from its grid and the landmark matrix on the first ``ais`` query.
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
    commit_dir,
    read_column,
    read_manifest,
    temp_sibling,
    write_column,
    write_manifest,
)


# -- writing ------------------------------------------------------------

def _base_config(engine) -> dict:
    """Config fragment shared by both engine kinds."""
    norm = engine.normalization
    return {
        "n": engine.graph.n,
        "directed": engine.graph.directed,
        "num_edges": engine.graph.num_edges,
        "s": engine.s,
        "seed": engine.seed,
        "landmark_strategy": engine.landmark_strategy,
        "backend": engine.backend,
        "normalization": {"p_max": norm.p_max, "d_max": norm.d_max},
        "landmarks": [int(l) for l in engine.landmarks.landmarks],
    }


def _write_shared_columns(engine, tmp: Path, columns: dict) -> None:
    """The columns both kinds store once: coordinates, landmark
    matrix, CSR adjacency."""
    locations = engine.locations
    columns["xs"] = write_column(tmp, "xs", _np.asarray(locations.xs, dtype=_np.float64))
    columns["ys"] = write_column(tmp, "ys", _np.asarray(locations.ys, dtype=_np.float64))
    landmarks = engine.landmarks
    columns["landmark_matrix"] = write_column(tmp, "landmark_matrix", landmarks.matrix)
    if engine.graph.directed:
        columns["landmark_matrix_rev"] = write_column(
            tmp, "landmark_matrix_rev", landmarks.matrix_rev
        )
    graph = engine.graph
    columns["graph_indptr"] = write_column(
        tmp, "graph_indptr", _np.asarray(graph.indptr, dtype=_np.int64)
    )
    columns["graph_nbrs"] = write_column(
        tmp, "graph_nbrs", _np.asarray(graph.nbrs, dtype=_np.int64)
    )
    columns["graph_wts"] = write_column(
        tmp, "graph_wts", _np.asarray(graph.wts, dtype=_np.float64)
    )


def _write_grid_columns(grid, tmp: Path, columns: dict, prefix: str) -> list:
    """Persist one grid's cell arrays under ``<prefix>_users/ixs/iys``;
    returns the bbox as a JSON-ready 4-list."""
    users, ixs, iys = grid.to_arrays()
    columns[f"{prefix}_users"] = write_column(
        tmp, f"{prefix}_users", _np.asarray(users, dtype=_np.int64)
    )
    columns[f"{prefix}_ixs"] = write_column(
        tmp, f"{prefix}_ixs", _np.asarray(ixs, dtype=_np.int64)
    )
    columns[f"{prefix}_iys"] = write_column(
        tmp, f"{prefix}_iys", _np.asarray(iys, dtype=_np.int64)
    )
    bbox = grid.bbox
    return [bbox.minx, bbox.miny, bbox.maxx, bbox.maxy]


def _write_single(engine, tmp: Path) -> dict:
    columns: dict = {}
    _write_shared_columns(engine, tmp, columns)
    config = _base_config(engine)
    config["grid_bbox"] = _write_grid_columns(engine.grid, tmp, columns, "grid")
    config["index_users"] = (
        None if engine.index_users is None else sorted(int(u) for u in engine.index_users)
    )
    # The social-distance sketch is persisted only once the engine has
    # actually materialised one (it is expensive to build and optional
    # to have): the section is additive, so snapshots without it load
    # unchanged on every format-1 reader.
    sketch = engine._sketch
    if sketch is not None:
        columns["sketch_indptr"] = write_column(
            tmp, "sketch_indptr", _np.asarray(sketch.indptr, dtype=_np.int64)
        )
        columns["sketch_nbrs"] = write_column(
            tmp, "sketch_nbrs", _np.asarray(sketch.nbrs, dtype=_np.int64)
        )
        columns["sketch_dists"] = write_column(
            tmp, "sketch_dists", _np.asarray(sketch.dists, dtype=_np.float64)
        )
        config["sketch"] = {
            "version": 1,
            "max_entries": int(sketch.max_entries),
            "empirical_half": float(sketch.empirical_half),
        }
    return {"kind": "engine", "config": config, "columns": columns}


def _write_sharded(engine, tmp: Path) -> dict:
    columns: dict = {}
    _write_shared_columns(engine, tmp, columns)
    config = _base_config(engine)
    config["shard_s"] = engine.shard_s
    config["max_workers"] = engine.max_workers
    config["partitioner_kind"] = engine.partitioner_kind
    config["partitioner"] = engine.partitioner.to_config()
    shards = []
    for sid in sorted(engine._engines):
        shard = engine._engines[sid]
        if len(shard.grid) == 0:
            continue  # drained by forget_location: rebuilt lazily on demand
        bbox = _write_grid_columns(shard.grid, tmp, columns, f"shard{sid}_grid")
        shards.append(
            {"sid": sid, "grid_bbox": bbox, "members": len(shard.grid)}
        )
    config["shards"] = shards
    return {"kind": "sharded", "config": config, "columns": columns}


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
    (:meth:`GeoSocialEngine.save` / :meth:`ShardedGeoSocialEngine.save`
    do); this function owns the durability protocol: temp sibling →
    columns fsynced → manifest fsynced (the commit point) → directory
    fsync → atomic rename.  On an :class:`InjectedFault` the temp state
    is deliberately left behind (a simulated crash); on any real error
    it is cleaned up.
    """
    from repro import __version__
    from repro.shard.engine import ShardedGeoSocialEngine

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = temp_sibling(path)
    tmp.mkdir(parents=True)
    try:
        if isinstance(engine, ShardedGeoSocialEngine):
            manifest = _write_sharded(engine, tmp)
        else:
            manifest = _write_single(engine, tmp)
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


def _load_shared(path, manifest: dict, *, mmap: bool, verify: bool):
    """(graph, locations, landmark_index, normalization) from the
    shared columns — the warm-start core both kinds build on."""
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

    # CSR arrays become the flat Python lists the Dijkstra hot loops
    # index — mmap buys nothing for data that is .tolist()'ed anyway.
    indptr = _column(path, manifest, "graph_indptr", mmap=False, verify=verify)
    nbrs = _column(path, manifest, "graph_nbrs", mmap=False, verify=verify)
    wts = _column(path, manifest, "graph_wts", mmap=False, verify=verify)
    try:
        graph = SocialGraph.from_csr(
            n,
            indptr.tolist(),
            nbrs.tolist(),
            wts.tolist(),
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
    return graph, locations, landmarks, normalization


def _restore_grid(path, manifest, prefix, bbox4, fanout, *, verify):
    """The :class:`UniformGrid` one persisted cell-array triple encodes
    (the engine derives its aggregate index from it on first use)."""
    from repro.spatial.grid import UniformGrid
    from repro.spatial.point import BBox

    users = _column(path, manifest, f"{prefix}_users", mmap=False, verify=verify)
    ixs = _column(path, manifest, f"{prefix}_ixs", mmap=False, verify=verify)
    iys = _column(path, manifest, f"{prefix}_iys", mmap=False, verify=verify)
    n = int(manifest["config"]["n"])
    if users.size and (users.min() < 0 or users.max() >= n):
        raise StoreCorruptionError(
            f"grid column {prefix}_users references user ids outside [0, {n})"
        )
    if not (users.shape == ixs.shape == iys.shape):
        raise StoreCorruptionError(
            f"grid columns {prefix}_* have mismatched lengths "
            f"{users.shape}/{ixs.shape}/{iys.shape}"
        )
    try:
        bbox = BBox(*(float(v) for v in bbox4))
        return UniformGrid.from_arrays(bbox, fanout * fanout, users, ixs, iys)
    except (TypeError, ValueError) as err:
        raise StoreCorruptionError(f"grid columns {prefix}_* are invalid: {err}") from err


def _load_sketch(path, manifest: dict, graph, landmarks, *, mmap: bool, verify: bool):
    """The persisted sketch, or ``None`` when the snapshot predates the
    sketch section.  Absence is *not* corruption — the engine rebuilds
    its sketch lazily on first approx/budgeted use — but a half-present
    section (columns without metadata, or inconsistent CSR shapes) is.
    """
    from repro.sketch.index import SketchIndex

    if manifest["columns"].get("sketch_indptr") is None:
        return None
    meta = manifest["config"].get("sketch")
    if not isinstance(meta, dict):
        raise StoreCorruptionError(
            f"snapshot at {path} stores sketch columns but no sketch "
            "metadata section — the manifest is mutually inconsistent"
        )
    indptr = _column(path, manifest, "sketch_indptr", mmap=mmap, verify=verify)
    nbrs = _column(path, manifest, "sketch_nbrs", mmap=mmap, verify=verify)
    dists = _column(path, manifest, "sketch_dists", mmap=mmap, verify=verify)
    try:
        return SketchIndex.from_tables(
            graph,
            landmarks,
            indptr,
            nbrs,
            dists,
            max_entries=int(meta["max_entries"]),
            empirical_half=float(meta["empirical_half"]),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise StoreCorruptionError(f"sketch columns are inconsistent: {err}") from err


def _load_single(path, manifest: dict, *, mmap: bool, verify: bool):
    from repro.backend import resolve_backend
    from repro.core.engine import GeoSocialEngine

    config = manifest["config"]
    graph, locations, landmarks, normalization = _load_shared(
        path, manifest, mmap=mmap, verify=verify
    )
    fanout = int(config["s"])
    grid = _restore_grid(path, manifest, "grid", config["grid_bbox"], fanout, verify=verify)
    index_users = config.get("index_users")
    sketch = _load_sketch(path, manifest, graph, landmarks, mmap=mmap, verify=verify)
    return GeoSocialEngine(
        graph,
        locations,
        s=fanout,
        seed=int(config["seed"]),
        normalization=normalization,
        landmark_strategy=config["landmark_strategy"],
        landmarks=landmarks,
        index_users=None if index_users is None else [int(u) for u in index_users],
        backend=resolve_backend(config["backend"]),
        grid=grid,
        sketch=sketch,
    )


def _load_sharded(path, manifest: dict, *, mmap: bool, verify: bool):
    from repro.backend import resolve_backend
    from repro.shard.engine import ShardedGeoSocialEngine
    from repro.shard.partitioner import Partitioner

    config = manifest["config"]
    graph, locations, landmarks, normalization = _load_shared(
        path, manifest, mmap=mmap, verify=verify
    )
    try:
        partitioner = Partitioner.from_config(config["partitioner"])
    except (KeyError, TypeError, ValueError) as err:
        raise StoreCorruptionError(f"partitioner config is invalid: {err}") from err

    # Ownership is derivable — owner == partitioner.shard_of(current
    # location) is the sharded engine's standing invariant — so the
    # stored per-shard membership must agree with the recomputation;
    # disagreement means the snapshot's columns contradict each other.
    expected: dict[int, set[int]] = {}
    xs, ys = locations.xs, locations.ys
    for user in locations.located_users():
        sid = partitioner.shard_of(xs[user], ys[user])
        expected.setdefault(sid, set()).add(user)

    shard_s = int(config["shard_s"])
    shard_grids: dict = {}
    for entry in config["shards"]:
        sid = int(entry["sid"])
        grid = _restore_grid(
            path, manifest, f"shard{sid}_grid", entry["grid_bbox"], shard_s, verify=verify
        )
        stored_members = set(grid._cell_of_user)
        if stored_members != expected.get(sid, set()):
            raise StoreCorruptionError(
                f"shard {sid} stores {len(stored_members)} members but the "
                f"partitioner assigns {len(expected.get(sid, set()))} — "
                "snapshot columns are mutually inconsistent"
            )
        if stored_members:
            shard_grids[sid] = grid
    missing = set(expected) - set(shard_grids)
    if missing:
        raise StoreCorruptionError(
            f"snapshot stores no grid columns for populated shards {sorted(missing)}"
        )

    return ShardedGeoSocialEngine(
        graph,
        locations,
        partitioner=partitioner,
        partitioner_kind=config["partitioner_kind"],
        max_workers=int(config["max_workers"]),
        landmark_strategy=config["landmark_strategy"],
        s=int(config["s"]),
        shard_s=shard_s,
        seed=int(config["seed"]),
        normalization=normalization,
        landmarks=landmarks,
        backend=resolve_backend(config["backend"]),
        _shard_grids=shard_grids,
    )


def load_engine(path, *, mmap: bool = True, verify: bool = True):
    """Warm-start the engine stored at ``path`` (either kind — the
    manifest's ``kind`` field dispatches).  ``verify=True`` checks
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
        return _load_single(path, manifest, mmap=mmap, verify=verify)
    if kind == "sharded":
        return _load_sharded(path, manifest, mmap=mmap, verify=verify)
    raise StoreCorruptionError(f"manifest at {path} names unknown engine kind {kind!r}")
