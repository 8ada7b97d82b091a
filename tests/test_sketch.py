"""Tentpole suite: the bounded-error sketch fast path (``approx``).

The contract under test, end to end:

- **the bound is certified, not benchmarked** — on every query, each
  reported neighbour's approx score differs from its exact score by at
  most ``result.error_bound`` (checked differentially against a full
  brute-force scan across users × alphas);
- **exactness on demand is bit-exact** — ``budget=0`` (or unset) is
  bit-identical to ``bruteforce`` through the engine, the cached
  service, and the HTTP server;
- ``auto`` answers exactly whatever the budget (an exact answer meets
  any): a budgeted ``auto`` never reads the sketch, let alone builds
  it;
- ``method="approx"`` is an explicit opt-in independent of any budget,
  routes to SPA at ``alpha == 0`` (the sketch has nothing to offer a
  pure-spatial query) and stays valid at ``alpha == 1``;
- cache lines: budgeted and exact requests never share an entry,
  ``budget=0`` and unset do, and approx entries are non-repairable
  (recomputed after an invalidating move, never patched in place);
- the kernels agree across backends, and the sketch rejects
  inconsistent CSR tables.
"""

from __future__ import annotations

import pytest

from repro import GeoSocialEngine, QueryService, SketchIndex
from repro.backend import resolve_backend
from repro.core.engine import FORWARD_DETERMINISTIC_METHODS, METHODS
from repro.datasets.synthetic import gowalla_like
from repro.server import ServerClient, ServerThread
from repro.core.request import QueryRequest
from repro.service.model import result_payload

TOL = 1e-12
ALPHAS = (0.1, 0.3, 0.7, 1.0)


@pytest.fixture(scope="module")
def dataset():
    return gowalla_like(n=300, seed=13)


@pytest.fixture(scope="module")
def engine(dataset) -> GeoSocialEngine:
    return GeoSocialEngine.from_dataset(dataset, num_landmarks=4, s=5, seed=3)


@pytest.fixture(scope="module")
def sample_users(engine) -> list[int]:
    return sorted(engine.locations.located_users())[:6]


def exact_scores(engine, user: int, alpha: float) -> dict[int, float]:
    """user -> exact score, for every finitely-scored user."""
    full = engine.query(user, k=engine.graph.n, alpha=alpha, method="bruteforce")
    return {nb.user: nb.score for nb in full}


# -- the bound ---------------------------------------------------------


def test_error_bound_certifies_every_reported_neighbor(engine, sample_users):
    """The differential property the whole fast path stands on: for
    every reported neighbour, |approx score − exact score| is within
    the advertised per-query bound — on every case, not on average."""
    cases = 0
    for user in sample_users:
        for alpha in ALPHAS:
            approx = engine.query(user, k=10, alpha=alpha, method="approx")
            truth = exact_scores(engine, user, alpha)
            assert approx.error_bound >= 0.0
            for nb in approx:
                assert nb.user in truth, (
                    f"approx reported {nb.user}, which has no finite exact score"
                )
                assert abs(nb.score - truth[nb.user]) <= approx.error_bound + TOL, (
                    f"user {user} alpha {alpha}: neighbour {nb.user} off by "
                    f"{abs(nb.score - truth[nb.user])} > bound {approx.error_bound}"
                )
                cases += 1
    assert cases > 0


def test_exact_methods_report_no_bound(engine, sample_users):
    """Exact methods carry ``error_bound=None`` — ``0.0`` is reserved
    for a *certified-exact* approx answer."""
    for method in ("bruteforce", "ais", "tsa"):
        result = engine.query(sample_users[0], k=5, alpha=0.3, method=method)
        assert result.error_bound is None


def test_approx_is_explicit_opt_in_without_budget(engine, sample_users):
    result = engine.query(sample_users[0], k=5, alpha=0.3, method="approx")
    assert result.method == "approx"
    assert len(result.users) == 5


def test_approx_is_a_registered_non_deterministic_method():
    assert "approx" in METHODS
    assert "approx" not in FORWARD_DETERMINISTIC_METHODS


def test_alpha_endpoint_routing(engine, sample_users):
    """``alpha == 0`` is pure spatial — the sketch contributes nothing,
    so approx routes to SPA (and is exact there); ``alpha == 1`` keeps
    the sketch path and its bound discipline."""
    user = sample_users[0]
    spatial = engine.query(user, k=5, alpha=0.0, method="approx")
    assert spatial.method == "spa"
    assert spatial.error_bound is None
    exact = engine.query(user, k=5, alpha=0.0, method="bruteforce")
    assert spatial.users == exact.users and spatial.scores == exact.scores
    social = engine.query(user, k=5, alpha=1.0, method="approx")
    assert social.method == "approx"
    truth = exact_scores(engine, user, 1.0)
    for nb in social:
        assert abs(nb.score - truth[nb.user]) <= social.error_bound + TOL


# -- budget semantics --------------------------------------------------


def test_budget_zero_bit_identical_through_every_path(engine, sample_users):
    """``budget=0`` and unset demand exactness: auto resolutions are
    bit-identical to bruteforce through the engine, the cached service,
    and HTTP."""
    user, k, alpha = sample_users[0], 8, 0.3
    brute = engine.query(user, k=k, alpha=alpha, method="bruteforce")
    for budget in (None, 0, 0.0):
        auto = engine.query(user, k=k, alpha=alpha, method="auto", budget=budget)
        assert auto.users == brute.users and auto.scores == brute.scores
        assert auto.error_bound is None
    with QueryService(engine, cache_size=256) as service:
        served = service.query(user, k=k, alpha=alpha, method="auto", budget=0.0)
        assert served.result.users == brute.users
        assert served.result.scores == brute.scores
        with ServerThread(service, workers=2) as handle:
            with ServerClient(handle.host, handle.port) as client:
                wire = client.query(user, k=k, alpha=alpha, method="auto", budget=0.0)
    assert wire["result"]["users"] == brute.users
    assert [nb["score"] for nb in wire["result"]["neighbors"]] == brute.scores
    assert wire["result"]["error_bound"] is None


def test_budgeted_auto_stays_within_budget(dataset, sample_users):
    """An exact answer meets any budget, so a budgeted ``auto`` runs
    what an unbudgeted one runs: bit-identical to bruteforce (no error
    to bound), the approx searcher never built and no sketch either."""
    fresh = GeoSocialEngine.from_dataset(dataset, num_landmarks=4, s=5, seed=3)
    with QueryService(fresh, cache_size=64) as service:
        for user in sample_users[:3]:
            for alpha in ALPHAS:
                brute = fresh.query(user, k=8, alpha=alpha, method="bruteforce")
                for budget in (0.05, 0.5, 1.0):
                    auto = service.query(user, k=8, alpha=alpha, budget=budget).result
                    assert (auto.users, auto.scores) == (brute.users, brute.scores)
                    assert auto.method == fresh.resolve_method(QueryRequest(user, 8, alpha))
                    assert auto.error_bound is None
    assert "approx" not in fresh._searchers
    assert fresh._sketch is None


def test_budget_validation_on_direct_engine_path(engine, sample_users):
    with pytest.raises(ValueError, match=r"budget must be in \[0, 1\]"):
        engine.query(sample_users[0], k=5, alpha=0.3, budget=1.5)
    with pytest.raises(ValueError, match="budget must be a number"):
        engine.query(sample_users[0], k=5, alpha=0.3, budget="lots")


# -- cache discipline --------------------------------------------------


def test_cache_key_separates_budgeted_from_exact_lines(engine):
    service = QueryService(engine, cache_size=16)
    try:
        exact_unset = QueryRequest(3, k=5, alpha=0.3, method="approx")
        exact_zero = QueryRequest(3, k=5, alpha=0.3, method="approx", budget=0.0)
        budgeted = QueryRequest(3, k=5, alpha=0.3, method="approx", budget=0.5)
        key_unset = service._cache_key(exact_unset, engine, "approx")
        key_zero = service._cache_key(exact_zero, engine, "approx")
        key_budgeted = service._cache_key(budgeted, engine, "approx")
        assert key_unset == key_zero, "budget=0 and unset both demand exactness"
        assert key_budgeted != key_unset
    finally:
        service.close()


def test_approx_entries_recompute_after_update_never_repair(engine, sample_users):
    """An approx cache entry's stored social terms are sketch
    midpoints; re-scoring one after a move would compound error past
    the recorded bound.  The cache must classify it non-repairable:
    the next identical query is a recompute, and the repair counter
    does not move."""
    user = sample_users[2]
    with QueryService(engine, cache_size=64) as service:
        first = service.query(user, k=5, alpha=0.3, method="approx")
        assert not first.cached
        assert service.query(user, k=5, alpha=0.3, method="approx").cached
        member = first.result.users[0]
        repaired_before = service.stats.repaired_entries
        x, y = engine.locations.get(member)
        service.move_user(member, min(x + 1e-4, 1.0), y)
        again = service.query(user, k=5, alpha=0.3, method="approx")
        assert not again.cached, "a member move must invalidate the approx line"
        assert service.stats.repaired_entries == repaired_before
        # and the recomputed entry still honours the bound discipline
        truth = exact_scores(engine, user, 0.3)
        for nb in again.result:
            assert abs(nb.score - truth[nb.user]) <= again.result.error_bound + TOL


# -- wire shape --------------------------------------------------------


def test_error_bound_rides_the_result_payload(engine, sample_users):
    approx = engine.query(sample_users[0], k=5, alpha=0.3, method="approx")
    payload = result_payload(approx)
    assert payload["error_bound"] == approx.error_bound
    exact = engine.query(sample_users[0], k=5, alpha=0.3, method="tsa")
    assert result_payload(exact)["error_bound"] is None


def test_http_approx_round_trip(engine, sample_users):
    user = sample_users[0]
    want = engine.query(user, k=5, alpha=0.3, method="approx")
    with QueryService(engine, cache_size=0) as service:
        with ServerThread(service, workers=2) as handle:
            with ServerClient(handle.host, handle.port) as client:
                wire = client.query(user, k=5, alpha=0.3, method="approx")
    assert wire["result"]["method"] == "approx"
    assert wire["result"]["users"] == want.users
    assert wire["result"]["error_bound"] == want.error_bound


# -- kernels & construction --------------------------------------------


def test_sketch_kernels_agree_across_backends(dataset):
    pytest.importorskip("numpy", reason="needs the vectorized leg to compare")
    scalar = GeoSocialEngine.from_dataset(
        dataset, num_landmarks=4, s=5, seed=3, backend=resolve_backend("python")
    )
    vector = GeoSocialEngine.from_dataset(
        dataset, num_landmarks=4, s=5, seed=3, backend=resolve_backend("numpy")
    )
    user = sorted(scalar.locations.located_users())[0]
    a = scalar.query(user, k=8, alpha=0.3, method="approx")
    b = vector.query(user, k=8, alpha=0.3, method="approx")
    assert a.users == b.users
    for sa, sb in zip(a.scores, b.scores):
        assert sa == pytest.approx(sb, abs=1e-12)
    assert a.error_bound == pytest.approx(b.error_bound, abs=1e-12)


def test_sketch_rejects_inconsistent_tables(engine):
    sketch = engine.sketch
    with pytest.raises(ValueError, match="indptr"):
        SketchIndex.from_tables(
            engine.graph,
            engine.landmarks,
            list(sketch.indptr)[:-1],
            list(sketch.nbrs),
            list(sketch.dists),
            max_entries=sketch.max_entries,
            empirical_half=sketch.empirical_half,
        )
    with pytest.raises(ValueError, match="disagree"):
        SketchIndex.from_tables(
            engine.graph,
            engine.landmarks,
            list(sketch.indptr),
            list(sketch.nbrs)[:-1],
            list(sketch.dists),
            max_entries=sketch.max_entries,
            empirical_half=sketch.empirical_half,
        )


def test_sketch_build_is_deterministic(engine):
    rebuilt = SketchIndex.build(
        engine.graph, engine.landmarks, seed=engine.seed, kernels=engine.kernels
    )
    sketch = engine.sketch
    assert rebuilt.empirical_half == sketch.empirical_half
    assert rebuilt.entry_count() == sketch.entry_count()
    assert list(rebuilt.indptr) == list(sketch.indptr)
    assert list(rebuilt.nbrs) == list(sketch.nbrs)
