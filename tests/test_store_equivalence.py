"""Round-trip equivalence: ``load(save(engine))`` answers every query
bit-identically to the engine it was saved from.

The store's correctness contract is stronger than "approximately the
same results": the persisted columns are the exact arrays the engine
computes from, the manifest round-trips the exact normalization
constants through JSON (Python floats survive json exactly), and the
loaded engine derives every index from those columns on first use —
so ids, scores, and tie-breaks must all match with ``==``, across
methods (including the ``auto`` route), through a save→load→save
cycle (the second snapshot is byte-identical), and from a snapshot
of format version 1, which still carried the grid and the landmark
matrix, or of version 2 naming the retired scalar backend, which loads
onto the one backend there is.  A snapshot taken after moves (a grid
rebuilt from the current locations, not the move history), edge
updates folded by a rebuild or a folding snapshot, and restores are
stepped by the whole-stack model, ``tests/test_service_model.py``,
which checks the served edge set after every fold.  It also round-trips
drawn tables of every build stratum, and restores one ``mmap=True``
snapshot again after the restored engine moved a user, so a move that
leaked into the snapshot's columns would show.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro import GeoSocialEngine, gowalla_like
from repro.backend import NumpyKernels
from repro.service import QueryService
from repro.store import MANIFEST_NAME, load_engine, save_engine
from tests.conftest import paired_saves

pytest.importorskip("numpy", reason="the columnar store persists .npy columns")

#: every searcher family plus the adaptive router — all of them are
#: forward-deterministic, so restored rankings must be exact
METHODS = ("sfa", "spa", "tsa", "tsa-qc", "ais", "bounded", "bruteforce", "auto")
ALPHAS = (0.0, 0.3, 1.0)


def build_engine(n=140, seed=13):
    return GeoSocialEngine.from_dataset(
        gowalla_like(n=n, seed=seed), num_landmarks=3, s=3, seed=2
    )


def assert_bit_identical(live, loaded, users, k=6, methods=METHODS, alphas=ALPHAS):
    for user in users:
        for method in methods:
            for alpha in alphas:
                a = live.query(user=user, k=k, alpha=alpha, method=method)
                b = loaded.query(user=user, k=k, alpha=alpha, method=method)
                ids_a = [nb.user for nb in a]
                ids_b = [nb.user for nb in b]
                context = f"user={user} method={method} alpha={alpha}"
                assert ids_a == ids_b, f"{context}: ids {ids_a} != {ids_b}"
                scores_a = [nb.score for nb in a]
                scores_b = [nb.score for nb in b]
                assert scores_a == scores_b, (
                    f"{context}: scores differ: {scores_a} != {scores_b}"
                )


def located_sample(engine, count=3):
    return sorted(engine.locations.located_users())[:count]


def test_a_format_version_1_snapshot_loads_and_answers_like_a_fresh_build():
    """``tests/data/store_v1_n60`` was written by the last build of
    format version 1 (landmark matrix, grid columns, ``landmarks`` and
    ``grid_bbox`` keys) from ``gowalla_like(n=60, seed=1)`` with
    ``num_landmarks=3, s=3, seed=2``.  It loads, its stored indexes
    ignored, and answers like an engine built from the same dataset."""
    path = Path(__file__).parent / "data" / "store_v1_n60"
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["format_version"] == 1 and "landmark_matrix" in manifest["columns"]
    loaded = load_engine(path)
    fresh = GeoSocialEngine.from_dataset(
        gowalla_like(n=60, seed=1), num_landmarks=3, s=3, seed=2
    )
    assert (loaded.num_landmarks, loaded.s, loaded.seed) == (3, 3, 2)
    assert loaded.normalization == fresh.normalization
    assert_bit_identical(fresh, loaded, located_sample(fresh, count=4))


def test_a_snapshot_the_scalar_backend_saved_loads_onto_numpy():
    """``tests/data/store_v2_python_n60`` was saved, in format version
    2, by the last build that had the scalar backend, from
    ``gowalla_like(n=60, seed=1)`` with ``num_landmarks=3, s=3,
    seed=2`` and ``backend="python"``.  It used to restore onto the
    scalar kernels whatever the loading process asked for; it loads
    onto ``NumpyKernels`` and answers bit-identically to an engine
    built from the same dataset."""
    path = Path(__file__).parent / "data" / "store_v2_python_n60"
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["format_version"] == 2 and manifest["config"]["backend"] == "python"
    loaded = load_engine(path)
    assert type(loaded.kernels) is NumpyKernels
    fresh = GeoSocialEngine.from_dataset(
        gowalla_like(n=60, seed=1), num_landmarks=3, s=3, seed=2
    )
    assert loaded.normalization == fresh.normalization
    assert_bit_identical(fresh, loaded, located_sample(fresh, count=4))


def test_save_load_save_is_byte_stable(tmp_path):
    """Persisting a loaded engine reproduces the identical columns —
    nothing drifts through a snapshot generation."""
    live = build_engine(n=100)
    save_engine(live, tmp_path / "a")
    save_engine(load_engine(tmp_path / "a"), tmp_path / "b")
    manifest_a = json.loads((tmp_path / "a" / MANIFEST_NAME).read_text())
    manifest_b = json.loads((tmp_path / "b" / MANIFEST_NAME).read_text())
    assert manifest_a["columns"] == manifest_b["columns"]
    assert manifest_a["config"] == manifest_b["config"]


def test_manifest_with_the_retired_default_t_key_still_loads(tmp_path):
    """Snapshots written before ``ais-cache`` left the served tier carry
    ``default_t`` in their config (same ``format_version``); the loader
    no longer reads the key, so they load and answer identically."""
    live = build_engine(n=100)
    save_engine(live, tmp_path / "snap")
    target = tmp_path / "snap" / MANIFEST_NAME
    manifest = json.loads(target.read_text())
    assert "default_t" not in manifest["config"]
    manifest["config"]["default_t"] = 500
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    loaded = load_engine(tmp_path / "snap")
    assert type(loaded) is type(live)
    assert_bit_identical(live, loaded, located_sample(live))


def test_loaded_engine_serves_typed_class_loaders(tmp_path):
    save_engine(build_engine(n=80), tmp_path / "single")
    assert isinstance(load_engine(tmp_path / "single"), GeoSocialEngine)


class ChangeLog:
    """A service follower that logs each move and swap it hears."""

    def __init__(self, log: list) -> None:
        self.log = log

    def location_updated(self, user, x, y) -> None:
        self.log.append("moved")

    def engine_swapped(self, engine) -> None:
        self.log.append("swapped")


def blocked_saves(monkeypatch, log: list):
    """Make ``SnapshotManager``'s saves wait on ``release`` once
    ``inside`` is set, and log ``"written"`` as each one starts
    writing.  Returns ``(inside, release)``."""
    import repro.store.manager as manager

    inside, release = threading.Event(), threading.Event()
    save = manager.save_engine

    def blocked_save(engine, path):
        inside.set()
        assert release.wait(timeout=30)
        log.append("written")
        return save(engine, path)

    monkeypatch.setattr(manager, "save_engine", blocked_save)
    return inside, release


def wait_until_queued(service, writers: int, done) -> None:
    """Wait until ``writers`` writers queue on the service's lock (or,
    unlocked, ``done()`` says they have landed)."""
    deadline = time.monotonic() + 30
    while service._lock._writers_waiting < writers and not done():
        assert time.monotonic() < deadline, "a writer never reached the lock"
        time.sleep(0.001)


def test_a_move_waits_for_a_running_save(tmp_path, monkeypatch):
    """``SnapshotManager.snapshot`` saves under the service's read lock,
    so a move from another thread lands after the save returns and the
    snapshot is one instant (the pre-move location)."""
    log: list = []
    inside, release = blocked_saves(monkeypatch, log)
    with QueryService(build_engine(n=80)) as service:
        service.follow(ChangeLog(log))
        mover = located_sample(service.engine, 1)[0]
        before = service.engine.locations.get(mover)
        manager = service.snapshots(tmp_path / "snaps")
        save = threading.Thread(target=manager.snapshot)
        save.start()
        assert inside.wait(timeout=30)
        move = threading.Thread(target=service.move_user, args=(mover, 0.111, 0.222))
        move.start()
        wait_until_queued(service, 1, lambda: "moved" in log)
        release.set()
        save.join(timeout=30)
        move.join(timeout=30)
        assert not save.is_alive() and not move.is_alive()
    assert log == ["written", "moved"]
    assert load_engine(manager.latest()).locations.get(mover) == before


def test_concurrent_snapshots_of_one_root_each_commit(tmp_path, monkeypatch):
    """Two threads snapshot one root at once, each through its own
    manager: neither raises, each commits its own directory, and
    ``CURRENT`` names the higher."""
    paired_saves(monkeypatch)
    root = tmp_path / "snaps"
    paths, errors = [], []

    def snapshot():
        try:
            paths.append(service.snapshots(root).snapshot())
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    with QueryService(build_engine(n=80)) as service:
        threads = [threading.Thread(target=snapshot) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sorted(path.name for path in paths) == ["snapshot-000001", "snapshot-000002"]
        manager = service.snapshots(root)
        assert manager.snapshots() == sorted(paths)
        assert manager.latest().name == "snapshot-000002"


def test_a_swap_waits_for_a_running_save(tmp_path, monkeypatch):
    """The manager reads the served engine and saves it inside one hold
    of the service's read lock: a rebuild started during the save swaps
    only after the save returns, and a move started after it waits too,
    so the snapshot is the engine that was served, as it was."""
    log: list = []
    inside, release = blocked_saves(monkeypatch, log)
    live = build_engine(n=80)
    with QueryService(live) as service:
        service.follow(ChangeLog(log))
        mover = located_sample(live, 1)[0]
        before = live.locations.get(mover)
        manager = service.snapshots(tmp_path / "snaps")
        save = threading.Thread(target=manager.snapshot)
        save.start()
        assert inside.wait(timeout=30)
        rebuild = threading.Thread(target=service.rebuild_engine)
        rebuild.start()
        wait_until_queued(service, 1, lambda: "swapped" in log)
        move = threading.Thread(target=service.move_user, args=(mover, 0.111, 0.222))
        move.start()
        wait_until_queued(service, 2, lambda: "moved" in log)
        release.set()
        for thread in (save, rebuild, move):
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert service.engine is not live
    assert log[0] == "written" and sorted(log[1:]) == ["moved", "swapped"]
    snapshot = load_engine(manager.latest())
    assert snapshot.locations.get(mover) == before
    assert_bit_identical(build_engine(n=80), snapshot, located_sample(snapshot))

