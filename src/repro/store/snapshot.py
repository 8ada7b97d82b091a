"""Whole-engine snapshots over the columnar format.

:func:`save_engine` serialises a :class:`~repro.core.engine.GeoSocialEngine`
to one snapshot directory; :func:`load_engine` warm-starts it back.
A snapshot holds the data, not the indexes.  What goes to disk is:

=====================  ================================================
``xs``, ``ys``         :class:`LocationTable` coordinate columns
``graph_indptr`` /     CSR social adjacency, in the graph's own
``graph_nbrs`` /       dtypes (``int32`` / ``int32`` / ``float64``;
``graph_wts``          older snapshots hold ``int64`` ids)
=====================  ================================================

plus a manifest carrying the format version, a sha256 per column and
the engine config: ``n``, ``directed``, ``num_edges``, ``s``, ``seed``,
``num_landmarks``, ``landmark_strategy`` and the alpha-normalisation
constants.  Snapshots of the retired sharded engine
kind (``kind: "sharded"``) no longer load: :func:`load_engine` raises
:class:`~repro.store.StoreError` for them.

Every index — SPA's grid, the landmark index, the aggregate index — is
derived from the data, so none is persisted: a loaded engine builds
each on first use, exactly as a freshly built one does (its first
``tsa`` or ``ais`` query pays the landmark build; interior ``auto``
reads none of them).  Neither is the runtime state every engine
rebuilds lazily (contraction hierarchies, neighbour caches,
``bounded``'s sampled distance profiles).  Every method therefore
answers bit-identically after a warm start.

Loading adopts columns zero-copy (``mmap_mode='c'``): the location
table and the CSR arrays map straight from disk (``int64`` CSR ids of
an older snapshot are cast once, after the range checks).  The reader
also accepts format version 1, whose landmark matrix, grid columns and
``landmarks`` / ``grid_bbox`` keys it ignores (``M`` is the length of
the stored landmark list).  A malformed manifest — a missing key, a
mistyped or out-of-range config value — raises
:class:`~repro.store.StoreCorruptionError` naming the key.
"""

from __future__ import annotations

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

    locations, graph = engine.locations, engine.graph
    put("xs", _np.asarray(locations.xs, dtype=_np.float64))
    put("ys", _np.asarray(locations.ys, dtype=_np.float64))
    put("graph_indptr", graph.indptr)
    put("graph_nbrs", graph.nbrs)
    put("graph_wts", graph.wts)
    norm = engine.normalization
    config = {
        "n": graph.n,
        "directed": graph.directed,
        "num_edges": graph.num_edges,
        "s": engine.s,
        "seed": engine.seed,
        "num_landmarks": engine.num_landmarks,
        "landmark_strategy": engine.landmark_strategy,
        "normalization": {"p_max": norm.p_max, "d_max": norm.d_max},
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

    Takes no lock: nothing may move the engine while it writes.  A
    served engine is saved through
    :meth:`~repro.store.SnapshotManager.snapshot`, which holds the
    service's read lock around the save, so the snapshot is one
    instant.  Owns the durability protocol: temp sibling → columns fsynced → manifest fsynced (the
    commit point) → directory fsync → atomic rename.  On an
    :class:`InjectedFault` the temp state is deliberately left behind
    (a simulated crash); on any real error it is cleaned up.
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
    if not isinstance(entry, dict):
        raise StoreCorruptionError(
            f"snapshot at {path} lists no column {name!r} in its manifest"
        )
    return read_column(path, entry, mmap=mmap, verify=verify)


def _typed(config: dict, key: str, kind: type):
    """``config[key]``, refused unless it is a ``kind`` (a bool is no
    ``int`` here)."""
    value = config[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{key} must be {kind.__name__}, got {value!r}")
    return value


def _load_engine(path, manifest: dict, *, mmap: bool, verify: bool):
    """The engine a ``kind: "engine"`` manifest describes.  A missing
    key and a mistyped or out-of-range config value are corruption;
    the engine's own checks judge the build parameters."""
    for section in ("config", "columns"):
        if not isinstance(manifest.get(section), dict):
            raise StoreCorruptionError(f"manifest at {path} has no {section!r} object")
    try:
        return _build_engine(path, manifest, mmap=mmap, verify=verify)
    except KeyError as err:
        raise StoreCorruptionError(f"manifest at {path} has no key {err}") from err
    except (TypeError, ValueError) as err:
        raise StoreCorruptionError(f"manifest at {path} has a bad config: {err}") from err


def _build_engine(path, manifest: dict, *, mmap: bool, verify: bool):
    """Config keys older writers added and nothing reads any more
    (``index_users``, ``default_t``, ``backend``, the ``sketch``
    section, version 1's ``landmarks`` and ``grid_bbox``) and their
    columns are ignored, so their snapshots load unchanged: a snapshot
    that names the retired scalar backend loads onto the one backend
    there is."""
    from repro.core.engine import GeoSocialEngine
    from repro.core.ranking import Normalization
    from repro.graph.socialgraph import SocialGraph
    from repro.spatial.point import LocationTable
    from repro.utils.validation import check_size

    config = manifest["config"]
    n = check_size("n", config["n"])
    xs = _column(path, manifest, "xs", mmap=mmap, verify=verify)
    ys = _column(path, manifest, "ys", mmap=mmap, verify=verify)
    if len(xs) != n or len(ys) != n:
        raise StoreCorruptionError(
            f"coordinate columns cover {len(xs)}/{len(ys)} users, "
            f"the manifest says n={n}"
        )
    try:
        locations = LocationTable.adopt_columns(xs, ys)
    except ValueError as err:
        raise StoreCorruptionError(f"coordinate columns xs / ys are corrupt: {err}") from err

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
            directed=_typed(config, "directed", bool),
            num_edges=check_size("num_edges", config["num_edges"]),
        )
    except ValueError as err:
        raise StoreCorruptionError(f"CSR columns are inconsistent: {err}") from err

    return GeoSocialEngine(
        graph,
        locations,
        s=config["s"],
        seed=_typed(config, "seed", int),
        normalization=Normalization(**config["normalization"]),
        num_landmarks=(
            len(config["landmarks"])
            if manifest["format_version"] == 1
            else config["num_landmarks"]
        ),
        landmark_strategy=config["landmark_strategy"],
    )


def load_engine(path, *, mmap: bool = True, verify: bool = True):
    """Warm-start the engine stored at ``path``.  ``verify=True`` checks
    every column's sha256; ``mmap=True`` maps the coordinate and CSR
    columns copy-on-write.

        >>> import tempfile
        >>> from repro import GeoSocialEngine, gowalla_like, load_engine, save_engine
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=60, seed=1))
        >>> path = save_engine(engine, tempfile.mkdtemp() + "/snap")
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
