"""Crash-consistency of the columnar store, driven by fault injection.

The snapshot writer announces every intermediate step — half a column
on disk, a column written but not fsynced, the manifest half-written,
the commit rename pending, the ``CURRENT`` pointer mid-move — through
:func:`repro.store.fault_point`.  This suite first *records* the full
label stream of a successful snapshot, then replays the writer once
per label with a hook that raises :class:`InjectedFault` exactly
there, leaving whatever a real crash at that instant would leave (the
writer deliberately skips cleanup on injected faults).  After every
simulated crash the invariant under test is the same:

    the last **committed** snapshot still loads and answers queries
    bit-identically, and the next clean snapshot succeeds.

The second half pins the typed-corruption contract: flipped column
bytes, truncated or non-JSON manifests, missing columns, and tampered
``CURRENT`` pointers raise :class:`StoreCorruptionError` — never
garbage rankings.
"""

from __future__ import annotations

import json
import re
import shutil

import pytest

from repro import GeoSocialEngine, gowalla_like
from repro.service import QueryService
from repro.store import (
    FORMAT_NAME,
    MANIFEST_NAME,
    InjectedFault,
    StoreCorruptionError,
    StoreError,
    fault_injection,
    load_engine,
    save_engine,
)
from repro.store.manager import CURRENT_NAME

pytest.importorskip("numpy", reason="the columnar store persists .npy columns")

METHODS = ("ais", "tsa", "sfa", "bruteforce", "auto")


def make_engine(n=160, seed=11):
    return GeoSocialEngine.from_dataset(
        gowalla_like(n=n, seed=seed), num_landmarks=3, s=3, seed=2
    )


def reference_answers(engine, users=None, k=5, alpha=0.3):
    """(user, method) -> [(id, score), ...] — the bit-exact baseline a
    recovered snapshot must reproduce."""
    if users is None:
        users = sorted(engine.locations.located_users())[:3]
    return {
        (u, m): [(nb.user, nb.score) for nb in engine.query(user=u, k=k, alpha=alpha, method=m)]
        for u in users
        for m in METHODS
    }


def assert_matches_reference(engine, reference):
    for (u, m), expected in reference.items():
        got = [
            (nb.user, nb.score)
            for nb in engine.query(user=u, k=5, alpha=0.3, method=m)
        ]
        assert got == expected, f"user {u} method {m}: {got} != {expected}"


def crash_at(label):
    """A fault hook that simulates a crash at exactly ``label``."""

    def hook(seen, target=label):
        if seen == target:
            raise InjectedFault(seen)

    return hook


def record_labels(service, root):
    """The full fault-point stream of one successful snapshot."""
    labels = []
    with fault_injection(labels.append):
        service.snapshots(root).snapshot()
    return labels


# -- fault-point coverage ----------------------------------------------


def test_fault_labels_cover_every_writer_stage(tmp_path):
    engine = make_engine(n=80)
    with QueryService(engine) as service:
        labels = record_labels(service, tmp_path / "snaps")
    # every column passes through partial / pre-fsync / synced
    # a snapshot holds the data columns only, no index
    columns = {l.split(":")[1] for l in labels if l.startswith("column:")}
    assert columns == {"xs", "ys", "graph_indptr", "graph_nbrs", "graph_wts"}
    for column in columns:
        for stage in ("partial", "pre-fsync", "synced"):
            assert f"column:{column}:{stage}" in labels
    # the manifest, the directory commit, and the pointer move each
    # announce their intermediate states, in protocol order
    for label in (
        "manifest:pre-write",
        "manifest:partial",
        "manifest:pre-fsync",
        "manifest:synced",
        "commit:pre-rename",
        "commit:renamed",
        "manager:pre-commit",
        "manager:pointer-written",
        "manager:committed",
    ):
        assert label in labels
    assert labels.index("manifest:pre-write") > max(
        i for i, l in enumerate(labels) if l.startswith("column:")
    ), "the manifest must be written after every column (it is the commit point)"
    assert labels.index("commit:pre-rename") > labels.index("manifest:synced")
    assert labels.index("manager:pre-commit") > labels.index("commit:renamed")


# -- the core invariant: crash anywhere, recover the last commit --------


def test_crash_at_every_fault_point_preserves_last_committed(tmp_path):
    """Kill the writer at *every* intermediate step of a second
    snapshot; snapshot #1 must stay the loadable, committed latest, and
    a clean snapshot afterwards must succeed."""
    engine = make_engine()
    reference = reference_answers(engine)
    with QueryService(engine) as service:
        manager = service.snapshots(tmp_path / "snaps")
        first = manager.snapshot()
        labels = record_labels(service, tmp_path / "labels-probe")
        # five columns x three stages, four manifest, two commit, three pointer
        assert len(labels) == 5 * 3 + 4 + 2 + 3
        for label in labels:
            before = set((tmp_path / "snaps").iterdir())
            with fault_injection(crash_at(label)):
                with pytest.raises(InjectedFault) as excinfo:
                    manager.snapshot()
            assert excinfo.value.label == label
            latest = manager.latest()
            assert latest is not None, f"crash at {label} lost the committed pointer"
            if label.startswith(("column:", "manifest:", "commit:pre-rename")):
                # nothing new became visible as a committed snapshot
                assert latest == first, f"crash at {label} moved CURRENT"
                committed = set(manager.snapshots())
                assert committed == {p for p in before if p in committed} | {first}
            recovered = load_engine(latest)
            assert_matches_reference(recovered, reference)
        # after all that debris, a clean snapshot still commits
        final = manager.snapshot()
        assert manager.latest() == final
        assert_matches_reference(load_engine(final), reference)


def test_crash_before_first_commit_leaves_no_snapshot(tmp_path):
    engine = make_engine(n=80)
    with QueryService(engine) as service:
        manager = service.snapshots(tmp_path / "snaps")
        with fault_injection(crash_at("commit:pre-rename")):
            with pytest.raises(InjectedFault):
                manager.snapshot()
        assert manager.latest() is None
        assert manager.snapshots() == []
        with pytest.raises(StoreError):
            manager.load()
        # the crash left writer debris under a .tmp- name no reader opens
        debris = [p for p in (tmp_path / "snaps").iterdir() if ".tmp-" in p.name]
        assert debris
        # recovery: the next snapshot claims a fresh sequence number
        path = manager.snapshot()
        assert path.name != debris[0].name.split(".tmp-")[0]
        assert manager.latest() == path


def test_crash_between_rename_and_pointer_is_recoverable(tmp_path):
    """A crash after the snapshot directory renames but before CURRENT
    moves leaves an extra committed directory the pointer ignores —
    the previous snapshot stays latest, and prune reaps the orphan."""
    engine = make_engine(n=80)
    with QueryService(engine) as service:
        manager = service.snapshots(tmp_path / "snaps")
        first = manager.snapshot()
        for label in ("manager:pre-commit", "manager:pointer-written"):
            with fault_injection(crash_at(label)):
                with pytest.raises(InjectedFault):
                    manager.snapshot()
            assert manager.latest() == first, label
        orphans = [p for p in manager.snapshots() if p != first]
        assert len(orphans) == 2
        # prune keeps the newest `keep` committed dirs plus the CURRENT
        # target: the older orphan goes, the pointer never moves
        removed = manager.prune(keep=1)
        assert removed == [orphans[0]]
        assert manager.latest() == first
        assert set(manager.snapshots()) == {first, orphans[1]}


def test_injected_fault_leaves_debris_but_real_errors_clean_up(tmp_path):
    engine = make_engine(n=80)
    # injected fault: temp dir survives, as after a real crash
    with fault_injection(crash_at("manifest:pre-fsync")):
        with pytest.raises(InjectedFault):
            save_engine(engine, tmp_path / "a")
    assert not (tmp_path / "a").exists()
    assert [p for p in tmp_path.iterdir() if p.name.startswith("a.tmp-")]
    # ordinary exception: the writer removes its temp state
    def boom(label):
        if label == "manifest:pre-fsync":
            raise OSError("disk full")

    with fault_injection(boom):
        with pytest.raises(OSError):
            save_engine(engine, tmp_path / "b")
    assert not (tmp_path / "b").exists()
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("b.tmp-")]


# -- typed corruption ----------------------------------------------------


@pytest.fixture()
def saved(tmp_path):
    engine = make_engine(n=80)
    path = tmp_path / "snap"
    save_engine(engine, path)
    return engine, path


def test_flipped_column_byte_raises_corruption(saved):
    _, path = saved
    for column in sorted(path.glob("*.npy")):
        original = column.read_bytes()
        damaged = bytearray(original)
        damaged[len(damaged) // 2] ^= 0xFF
        column.write_bytes(bytes(damaged))
        with pytest.raises(StoreCorruptionError, match="checksum mismatch"):
            load_engine(path)
        column.write_bytes(original)
    load_engine(path)  # pristine again


def test_truncated_manifest_raises_corruption(saved, tmp_path):
    _, path = saved
    manifest = path / MANIFEST_NAME
    payload = manifest.read_bytes()
    for cut in (0, 1, len(payload) // 2, len(payload) - 1):
        manifest.write_bytes(payload[:cut])
        with pytest.raises(StoreCorruptionError):
            load_engine(path)
    manifest.unlink()
    with pytest.raises(StoreCorruptionError, match="no readable manifest"):
        load_engine(path)


def test_foreign_and_future_manifests_are_rejected(saved):
    _, path = saved
    manifest = path / MANIFEST_NAME
    original = json.loads(manifest.read_text())
    foreign = dict(original, format="someone-elses-format")
    manifest.write_text(json.dumps(foreign))
    with pytest.raises(StoreCorruptionError, match=FORMAT_NAME):
        load_engine(path)
    future = dict(original, format_version=999)
    manifest.write_text(json.dumps(future))
    with pytest.raises(StoreError, match="format version"):
        load_engine(path)


def test_a_sharded_snapshot_gets_a_typed_error_and_old_manifests_still_load(saved):
    """The sharded engine kind is gone: its snapshots raise a
    :class:`StoreError` that says so (not the generic unknown-kind
    corruption), while a single-engine manifest still carrying the
    member-filter field of the two-kind format (``index_users: null``)
    loads unchanged."""
    engine, path = saved
    manifest = path / MANIFEST_NAME
    original = json.loads(manifest.read_text())
    legacy = json.loads(manifest.read_text())
    legacy["config"]["index_users"] = None
    manifest.write_text(json.dumps(legacy))
    assert_matches_reference(load_engine(path), reference_answers(engine))
    manifest.write_text(json.dumps(dict(original, kind="sharded")))
    with pytest.raises(StoreError, match="no longer loadable") as excinfo:
        load_engine(path)
    assert not isinstance(excinfo.value, StoreCorruptionError)
    assert "re-save it from a GeoSocialEngine" in str(excinfo.value)


def _drop(doc, *keys):
    *parents, last = keys
    for key in parents:
        doc = doc[key]
    del doc[last]


def _set(value, *keys):
    def edit(doc):
        *parents, last = keys
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return edit


MALFORMED_MANIFESTS = [
    # (case id, edit of the manifest document, what the error names)
    ("no_config", lambda doc: _drop(doc, "config"), "'config'"),
    ("no_columns", lambda doc: _drop(doc, "columns"), "'columns'"),
    ("no_n", lambda doc: _drop(doc, "config", "n"), "'n'"),
    ("no_normalization", lambda doc: _drop(doc, "config", "normalization"), "'normalization'"),
    ("no_column_file", lambda doc: _drop(doc, "columns", "xs", "file"), "'file'"),
    ("n_text", _set("abc", "config", "n"), "n must be an integer"),
    ("n_fraction", _set(80.5, "config", "n"), "n must be an integer"),
    ("directed_text", _set("no", "config", "directed"), "directed must be bool"),
    ("s_text", _set("x", "config", "s"), "s must be an integer"),
    ("p_max_negative", _set(-1.0, "config", "normalization", "p_max"), "p_max must be"),
    ("p_max_nan", _set(float("nan"), "config", "normalization", "p_max"), "p_max must be"),
    ("columns_list", _set([], "columns"), "'columns'"),
    ("config_list", _set([], "config"), "'config'"),
]


@pytest.mark.parametrize("name,edit,named", MALFORMED_MANIFESTS, ids=[c[0] for c in MALFORMED_MANIFESTS])
def test_a_malformed_manifest_is_typed_corruption_naming_the_key(saved, name, edit, named):
    """A manifest missing a key, or holding a mistyped or out-of-range
    config value, is :class:`StoreCorruptionError` naming the key —
    never a ``KeyError`` (a 404 over HTTP), a ``ValueError`` (a 400
    that blames the client), nor a silent load of a truncated or NaN
    value."""
    _, path = saved
    manifest = path / MANIFEST_NAME
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(StoreCorruptionError, match=re.escape(named)):
        load_engine(path)


def test_restoring_a_malformed_manifest_over_http_is_a_store_corruption(tmp_path):
    from repro.server import ServerClient, ServerThread

    engine = make_engine(n=80)
    with QueryService(engine) as service:
        latest = service.snapshots(tmp_path / "snaps").snapshot()
        manifest = latest / MANIFEST_NAME
        doc = json.loads(manifest.read_text())
        del doc["config"]
        manifest.write_text(json.dumps(doc))
        with ServerThread(service, workers=1) as handle:
            with ServerClient(handle.host, handle.port) as client:
                status, _, reply = client.request(
                    "POST", "/restore", {"root": str(tmp_path / "snaps")}
                )
        assert (status, reply["error"]["type"]) == (500, "store_corruption")
        assert "'config'" in reply["error"]["message"]
        assert service.engine is engine


def test_missing_column_file_raises_corruption(saved):
    _, path = saved
    (path / "xs.npy").unlink()
    with pytest.raises(StoreCorruptionError):
        load_engine(path)


def test_manifest_column_shape_disagreement_raises_corruption(saved):
    _, path = saved
    manifest = path / MANIFEST_NAME
    doc = json.loads(manifest.read_text())
    doc["columns"]["xs"]["shape"] = [3]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(StoreCorruptionError):
        load_engine(path, verify=False)


def test_tampered_current_pointer_raises_corruption(tmp_path):
    engine = make_engine(n=80)
    with QueryService(engine) as service:
        manager = service.snapshots(tmp_path / "snaps")
        manager.snapshot()
        (tmp_path / "snaps" / CURRENT_NAME).write_text("snapshot-999999\n")
        with pytest.raises(StoreCorruptionError, match="CURRENT"):
            manager.latest()


def test_committed_snapshot_with_gutted_directory_fails_loudly(tmp_path):
    engine = make_engine(n=80)
    with QueryService(engine) as service:
        manager = service.snapshots(tmp_path / "snaps")
        path = manager.snapshot()
        shutil.rmtree(path)
        with pytest.raises(StoreCorruptionError):
            manager.latest()


def test_snapshot_with_int64_csr_ids_loads_cast_and_range_checked(saved):
    """Snapshots once stored ``graph_indptr`` / ``graph_nbrs`` as
    ``int64``.  They load (mapped or not), cast once to the graph's
    ``int32``, and answer like the engine that saved them; a wide id
    out of range is still typed corruption."""
    import numpy as np

    from repro.store.format import write_column

    engine, path = saved
    manifest = path / MANIFEST_NAME
    doc = json.loads(manifest.read_text())
    graph = engine.graph
    for name, column in (("graph_indptr", graph.indptr), ("graph_nbrs", graph.nbrs)):
        doc["columns"][name] = write_column(path, name, column.astype(np.int64))
    manifest.write_text(json.dumps(doc))
    reference = reference_answers(engine)
    for mmap in (True, False):
        loaded = load_engine(path, mmap=mmap, verify=True)
        assert loaded.graph.nbrs.dtype == np.int32 and loaded.graph.indptr.dtype == np.int32
        assert loaded.graph.nbrs.tolist() == graph.nbrs.tolist()
        assert_matches_reference(loaded, reference)
    wide = graph.nbrs.astype(np.int64)
    wide[0] = 2**32  # would wrap to 0 in int32
    doc["columns"]["graph_nbrs"] = write_column(path, "graph_nbrs", wide)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(StoreCorruptionError, match="neighbour id out of range"):
        load_engine(path)


# -- retired sections: snapshots written with a sketch still load --------


def test_snapshot_with_retired_sketch_columns_loads_and_ignores_them(saved):
    """Snapshots once carried an optional social-distance sketch: three
    ``sketch_*`` CSR columns plus a ``config["sketch"]`` section.  The
    bounded-error path that read them is gone; such a snapshot loads
    (checksums verified, columns mapped or not) with the extra columns
    and section ignored, and answers like the engine that saved it."""
    import numpy as np

    from repro.store.format import write_column

    engine, path = saved
    manifest = path / MANIFEST_NAME
    doc = json.loads(manifest.read_text())
    n = engine.graph.n
    doc["columns"]["sketch_indptr"] = write_column(path, "sketch_indptr", np.zeros(n + 1, np.int64))
    doc["columns"]["sketch_nbrs"] = write_column(path, "sketch_nbrs", np.zeros(0, np.int64))
    doc["columns"]["sketch_dists"] = write_column(path, "sketch_dists", np.zeros(0, np.float64))
    doc["config"]["sketch"] = {"version": 1, "max_entries": 64, "empirical_half": 0.25}
    manifest.write_text(json.dumps(doc))
    reference = reference_answers(engine)
    for mmap in (True, False):
        loaded = load_engine(path, mmap=mmap, verify=True)
        assert not hasattr(loaded, "sketch")
        assert_matches_reference(loaded, reference)
    # the columns are never read: a listed-but-absent one is no error
    (path / "sketch_dists.npy").unlink()
    assert_matches_reference(load_engine(path), reference)


@pytest.mark.parametrize("x,y", [(0.5, float("nan")), (float("nan"), 0.5), (float("inf"), 0.5)])
def test_a_half_missing_or_infinite_location_is_typed_corruption(saved, x, y):
    """A coordinate pair with exactly one NaN, or an infinite
    coordinate, is no location the table can hold: the columns' sha256
    can match (verify off here) and the load still refuses them,
    naming the user."""
    import numpy as np

    _, path = saved
    xs, ys = np.load(path / "xs.npy"), np.load(path / "ys.npy")
    xs[7], ys[7] = x, y
    np.save(path / "xs.npy", xs)
    np.save(path / "ys.npy", ys)
    with pytest.raises(StoreCorruptionError, match="user 7 has location"):
        load_engine(path, verify=False)


def test_a_bad_coordinate_is_corruption_of_the_coordinate_columns(saved):
    """A lone NaN in ``xs.npy`` used to be reported as "a bad config",
    though the config was sound: the load names the coordinate columns,
    as it names the CSR columns for a bad weight."""
    import numpy as np

    _, path = saved
    xs = np.load(path / "xs.npy")
    xs[3] = float("nan")
    np.save(path / "xs.npy", xs)
    with pytest.raises(StoreCorruptionError) as refused:
        load_engine(path, verify=False)
    message = str(refused.value)
    assert "coordinate columns xs / ys are corrupt: user 3 has location" in message
    assert "config" not in message
