"""Backend-equivalence harness: ``NumpyKernels`` and ``PythonKernels``
must produce identical rankings.

The data-plane refactor's core promise: backend choice is purely a
performance decision, never a semantics one.  Both backends share one
Euclidean primitive (``sqrt(dx² + dy²)``), one blend gating rule, and
one ALT bound definition built from IEEE-exact elementwise operations,
so their scores should agree bit-for-bit — this suite pins top-k ids
exactly (tie-breaks included) and scores within 1e-9 (the acceptance
tolerance; on CI hardware they are in fact equal) across methods, α
values (endpoints included) and coverage levels.

Runs under a fixed, derandomized profile, applied per test, so CI runs
are deterministic.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import Kernels, PythonKernels, resolve_backend
from repro.core.engine import GeoSocialEngine
from tests.conftest import query_with, random_instance

pytest.importorskip("numpy", reason="backend equivalence needs the numpy backend")

settings.register_profile(
    "backend-ci",
    max_examples=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
BACKEND_CI = settings.get_profile("backend-ci")

#: methods exercising every batched code path: full-scan scoring
#: (bruteforce), NN-stream batching (spa/tsa), AIS leaf batching
#: (ais/ais-minus), plus the scalar-stream control (sfa)
METHODS = ("bruteforce", "spa", "tsa", "tsa-qc", "ais", "ais-minus", "sfa")
ALPHAS = (0.0, 0.25, 0.3123, 0.5, 1.0)


def build_backend_pair(n, seed, coverage, avg_degree=6.0):
    """(python-backend, numpy-backend) single engines over one dataset,
    sharing landmarks and normalization so only the kernels differ."""
    graph, locations = random_instance(n, seed=seed, coverage=coverage, avg_degree=avg_degree)
    if locations.n_located == 0:
        locations.set(0, 0.5, 0.5)
    scalar = GeoSocialEngine(
        graph, locations.copy(), num_landmarks=3, s=3, seed=3, backend="python"
    )
    vector = GeoSocialEngine(
        graph,
        locations.copy(),
        num_landmarks=3,
        s=3,
        seed=3,
        backend="numpy",
        landmarks=scalar.landmarks,
        normalization=scalar.normalization,
    )
    return scalar, vector


def assert_backend_rankings_equal(a, b, context):
    ids_a = [nb.user for nb in a]
    ids_b = [nb.user for nb in b]
    assert ids_a == ids_b, f"{context}: ranking differs: {ids_a} vs {ids_b}"
    for nb_a, nb_b in zip(a, b):
        assert abs(nb_a.score - nb_b.score) <= 1e-9, (
            f"{context}: score for user {nb_a.user} differs: "
            f"{nb_a.score!r} vs {nb_b.score!r}"
        )


@BACKEND_CI
@given(
    n=st.integers(min_value=24, max_value=90),
    seed=st.integers(min_value=0, max_value=2**16),
    coverage=st.sampled_from((0.5, 0.8, 1.0)),
    alpha=st.sampled_from(ALPHAS),
    k=st.sampled_from((1, 5, 12)),
)
def test_single_engine_backends_rank_identically(n, seed, coverage, alpha, k):
    scalar, vector = build_backend_pair(n, seed, coverage)
    queries = [u for u in scalar.locations.located_users()][:4] or [0]
    for method in METHODS:
        for user in queries:
            try:
                a = query_with(scalar, user, k, alpha, method)
            except ValueError as err:
                with pytest.raises(ValueError):
                    query_with(vector, user, k, alpha, method)
                assert "location" in str(err) or "alpha" in str(err)
                continue
            b = query_with(vector, user, k, alpha, method)
            assert_backend_rankings_equal(a, b, f"{method}@alpha={alpha}")


def test_backend_scores_bitwise_equal_on_ci_hardware():
    """Stronger than the 1e-9 contract: on one platform the two
    backends agree *bit-for-bit* (same sqrt/multiply/add sequence) —
    the property that makes tie-breaks portable between them."""
    scalar, vector = build_backend_pair(n=70, seed=123, coverage=0.7)
    queries = [u for u in scalar.locations.located_users()][:5]
    for method in METHODS:
        for user in queries:
            try:
                a = query_with(scalar, user, 10, 0.3, method)
            except ValueError:
                continue
            b = query_with(vector, user, 10, 0.3, method)
            assert [(nb.user, float(nb.score)) for nb in a] == [
                (nb.user, float(nb.score)) for nb in b
            ], method


#: every bulk primitive of the ``Kernels`` protocol
PROTOCOL = (
    "euclidean_to_point",
    "alt_lower_bounds",
    "alt_upper_bounds",
    "interval_midpoints",
    "blend",
    "top_k_by_score",
    "blend_topk_multi",
    "nanbbox",
    "summary_minmax",
    "dense_from_dict",
    "count_finite",
    "sssp_column",
)


def test_both_backends_implement_the_whole_protocol():
    """The list above *is* the protocol (a kernel added to one side
    only, or to neither list, fails here), and both backends carry
    every entry."""
    declared = {
        name for name, member in vars(Kernels).items()
        if callable(member) and not name.startswith("_")
    }
    assert declared == set(PROTOCOL)
    for backend in ("python", "numpy"):
        kernels = resolve_backend(backend)
        assert isinstance(kernels, Kernels)
        assert all(callable(getattr(kernels, name)) for name in PROTOCOL), backend


def test_default_searcher_kernels_are_scalar():
    """Direct searcher construction (no engine) stays on the extracted
    scalar path — backend choice is an engine-level decision."""
    from repro.core.bruteforce import BruteForceSearch
    from repro.core.ranking import Normalization
    from repro.graph.socialgraph import SocialGraph
    from repro.spatial.point import LocationTable

    g = SocialGraph.from_edges(2, [(0, 1, 1.0)])
    loc = LocationTable.from_columns([0.0, 1.0], [0.0, 0.0])
    bf = BruteForceSearch(g, loc, Normalization(p_max=1.0, d_max=1.0))
    assert isinstance(bf.kernels, PythonKernels)


def test_engine_backend_survives_with_graph_and_rebuild():
    """The backend is resolved once and propagated through rebuilds —
    the with_graph / rebuild_engine contract of the issue."""
    from repro.service import QueryService

    graph, locations = random_instance(40, seed=5)
    engine = GeoSocialEngine(graph, locations, num_landmarks=2, s=3, backend="python")
    assert engine.backend == "python"
    rebuilt = engine.with_graph(graph)
    assert rebuilt.backend == "python"
    assert isinstance(rebuilt.kernels, PythonKernels)

    with QueryService(engine, cache_size=8) as service:
        service.update_edge(0, 1, 0.5)
        swapped = service.rebuild_engine()
        assert swapped.backend == "python"


def test_custom_kernels_instance_survives_rebuild():
    """A user-supplied Kernels object (not just a name) is propagated
    as-is through with_graph — not re-resolved by name."""

    class TracingKernels(PythonKernels):
        name = "traced"

    graph, locations = random_instance(30, seed=8)
    kernels = TracingKernels()
    engine = GeoSocialEngine(graph, locations, num_landmarks=2, s=3, backend=kernels)
    assert engine.backend == "traced"
    rebuilt = engine.with_graph(graph)
    assert rebuilt.kernels is kernels


def test_resolve_backend_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "python")
    assert resolve_backend("auto").name == "python"
    # explicit request beats the environment
    assert resolve_backend("numpy").name == "numpy"
    monkeypatch.setenv("REPRO_BACKEND", "bogus")
    with pytest.raises(ValueError):
        resolve_backend("auto")
    monkeypatch.delenv("REPRO_BACKEND")
    assert resolve_backend("auto").name == "numpy"
