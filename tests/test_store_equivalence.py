"""Round-trip equivalence: ``load(save(engine))`` answers every query
bit-identically to the live engine.

The store's correctness contract is stronger than "approximately the
same results": the persisted columns are the exact arrays the engine
computes from, the manifest round-trips the exact normalization
constants through JSON (Python floats survive json exactly), and the
loaded engine rebuilds its indexes from the *same* cell arrays the
live engine maintains — so ids, scores, and tie-breaks must all match
with ``==``, across backends × methods (including the ``auto``
route), through a save→load→save cycle (the
second snapshot is byte-identical), and through an
update-fold-then-snapshot cycle on the service.

Property tests run under the suite's fixed, derandomized profile.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GeoSocialEngine, SocialGraph, gowalla_like
from repro.service import QueryService
from repro.store import MANIFEST_NAME, load_engine
from tests.conftest import random_instance

pytest.importorskip("numpy", reason="the columnar store persists .npy columns")

settings.register_profile(
    "store-ci",
    max_examples=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
STORE_CI = settings.get_profile("store-ci")

#: every searcher family plus the adaptive router — all of them are
#: forward-deterministic, so restored rankings must be exact
METHODS = ("sfa", "spa", "tsa", "tsa-qc", "ais", "bounded", "bruteforce", "auto")
ALPHAS = (0.0, 0.3, 1.0)
BACKENDS = ("python", "numpy")


def build_engine(backend, n=140, seed=13):
    return GeoSocialEngine.from_dataset(
        gowalla_like(n=n, seed=seed), num_landmarks=3, s=3, seed=2, backend=backend
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_roundtrip_bit_identical(tmp_path, backend):
    live = build_engine(backend)
    live.save(tmp_path / "snap")
    loaded = load_engine(tmp_path / "snap")
    assert type(loaded) is type(live)
    assert loaded.backend == live.backend
    assert loaded.graph.n == live.graph.n
    assert loaded.normalization == live.normalization
    assert_bit_identical(live, loaded, located_sample(live))


def test_mmap_and_eager_loads_agree(tmp_path):
    live = build_engine("numpy", n=100)
    live.save(tmp_path / "snap")
    warm = load_engine(tmp_path / "snap", mmap=True)
    cold = load_engine(tmp_path / "snap", mmap=False, verify=False)
    assert_bit_identical(warm, cold, located_sample(live), methods=("ais", "auto"))


def test_save_load_save_is_byte_stable(tmp_path):
    """Persisting a loaded engine reproduces the identical columns —
    nothing drifts through a snapshot generation."""
    live = build_engine("numpy", n=100)
    live.save(tmp_path / "a")
    load_engine(tmp_path / "a").save(tmp_path / "b")
    manifest_a = json.loads((tmp_path / "a" / MANIFEST_NAME).read_text())
    manifest_b = json.loads((tmp_path / "b" / MANIFEST_NAME).read_text())
    assert manifest_a["columns"] == manifest_b["columns"]
    assert manifest_a["config"] == manifest_b["config"]


def test_manifest_with_the_retired_default_t_key_still_loads(tmp_path):
    """Snapshots written before ``ais-cache`` left the served tier carry
    ``default_t`` in their config (same ``format_version``); the loader
    no longer reads the key, so they load and answer identically."""
    live = build_engine("numpy", n=100)
    live.save(tmp_path / "snap")
    target = tmp_path / "snap" / MANIFEST_NAME
    manifest = json.loads(target.read_text())
    assert "default_t" not in manifest["config"]
    manifest["config"]["default_t"] = 500
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    loaded = load_engine(tmp_path / "snap")
    assert type(loaded) is type(live)
    assert_bit_identical(live, loaded, located_sample(live))


def test_loaded_engine_serves_typed_class_loaders(tmp_path):
    build_engine("numpy", n=80).save(tmp_path / "single")
    assert isinstance(GeoSocialEngine.load(tmp_path / "single"), GeoSocialEngine)


def test_loaded_engine_stays_mutable_without_touching_snapshot(tmp_path):
    """Copy-on-write mmap: updates to a warm-started engine never leak
    back into the snapshot another process may be reading."""
    live = build_engine("numpy", n=100)
    live.save(tmp_path / "snap")
    first = GeoSocialEngine.load(tmp_path / "snap")
    user = located_sample(first, 1)[0]
    first.move_user(user, 0.111, 0.222)
    second = GeoSocialEngine.load(tmp_path / "snap")
    assert second.locations.get(user) == live.locations.get(user)
    assert second.locations.get(user) != first.locations.get(user)
    assert_bit_identical(live, second, located_sample(live))


def test_update_fold_then_snapshot_cycle(tmp_path):
    """Batched edge updates fold into the snapshot through the same
    rebuild path the serving layer uses; the restored engine answers
    exactly like the live post-fold engine."""
    engine = build_engine("numpy")
    with QueryService(engine) as service:
        manager = service.snapshots(tmp_path / "snaps")
        manager.snapshot()
        users = located_sample(service.engine)
        u, v = users[0], users[1]
        service.update_edge(u, v, 0.123)
        service.move_user(u, 0.321, 0.654)
        assert service.pending_edge_updates == 1
        path = manager.snapshot()  # folds, then persists
        assert service.pending_edge_updates == 0
        live = service.engine
        assert live.graph.edge_weight(u, v) == 0.123
        loaded = load_engine(path)
        assert loaded.graph.edge_weight(u, v) == 0.123
        assert loaded.locations.get(u) == (0.321, 0.654)
        assert_bit_identical(live, loaded, users)
        # restore swaps the loaded engine into the service
        restored = manager.restore()
        assert service.engine is restored
        after = [nb.user for nb in restored.query(user=u, k=5, alpha=0.3)]
        before = [nb.user for nb in live.query(user=u, k=5, alpha=0.3)]
        assert after == before


def test_long_edge_stream_folds_to_the_fresh_build_and_round_trips(tmp_path):
    """60 seeded edge updates (inserts, re-weights, deletes, edges
    touched twice, delete-then-reinsert) folded by one
    ``rebuild_engine`` answer bit-identically — ids, scores,
    tie-breaks, every exact served method — to an engine built from
    scratch over ``SocialGraph.from_edges`` of the expected edge set,
    and the folded engine survives ``save -> load``."""
    engine = build_engine("numpy", n=150)
    graph = engine.graph
    rng = random.Random(21)
    expected = {(u, v): w for u, v, w in graph.edges()}
    with QueryService(engine) as service:
        deleted = []
        for step in range(60):
            roll = rng.random()
            if roll < 0.3 and deleted:  # delete-then-reinsert
                u, v = deleted.pop()
            elif roll < 0.7:  # an existing edge: re-weight or delete
                u, v = rng.choice(sorted(expected))
            else:
                u, v = sorted(rng.sample(range(graph.n), 2))
            if (u, v) in expected and rng.random() < 0.4:
                weight = None
                deleted.append((u, v))
                del expected[(u, v)]
            else:
                weight = expected[(u, v)] = rng.uniform(0.05, 1.0)
            if step % 2:
                u, v = v, u  # either orientation names the undirected edge
            service.update_edge(u, v, weight)
        assert 0 < service.pending_edge_updates <= 60
        folded = service.rebuild_engine()
        assert service.pending_edge_updates == 0
        edges = [(u, v, w) for (u, v), w in expected.items()]
        rng.shuffle(edges)  # the CSR's neighbour order must not matter
        fresh = GeoSocialEngine(
            SocialGraph.from_edges(graph.n, edges),
            folded.locations.copy(),
            num_landmarks=3,
            s=3,
            seed=2,
            normalization=folded.normalization,
        )
        assert sorted(folded.graph.edges()) == sorted(fresh.graph.edges())
        users = located_sample(folded, count=4)
        assert_bit_identical(folded, fresh, users)
        folded.save(tmp_path / "snap")
        assert_bit_identical(folded, load_engine(tmp_path / "snap"), users)
        folded.close()


@settings(parent=STORE_CI)
@given(
    n=st.integers(min_value=12, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
    coverage=st.floats(min_value=0.4, max_value=1.0),
    alpha=st.sampled_from((0.0, 0.17, 0.3123, 0.5, 0.83, 1.0)),
    k=st.integers(min_value=1, max_value=8),
)
def test_roundtrip_property(tmp_path_factory, n, seed, coverage, alpha, k):
    graph, locations = random_instance(n, seed=seed, coverage=coverage)
    if locations.n_located == 0:
        locations.set(0, 0.5, 0.5)
    live = GeoSocialEngine(
        graph, locations, num_landmarks=3, s=3, seed=3, backend="numpy"
    )
    path = tmp_path_factory.mktemp("store") / "snap"
    live.save(path)
    loaded = load_engine(path)
    users = sorted(live.locations.located_users())[:2]
    for user in users:
        for method in ("ais", "tsa", "auto"):
            a = live.query(user=user, k=k, alpha=alpha, method=method)
            b = loaded.query(user=user, k=k, alpha=alpha, method=method)
            assert [nb.user for nb in a] == [nb.user for nb in b]
            assert [nb.score for nb in a] == [nb.score for nb in b]
