"""Equivalence harness: the engine against the Definition 1 model, and
the kernels against their scalar reference.

The data plane's promise is that vectorizing changed no answer.  One
half of this suite pins it end to end: an engine (``NumpyKernels``
behind every method) ranks exactly as the scalar Definition 1 model of
``tests/model.py`` does — ids and tie-breaks exact, scores bit-equal;
the AIS family sums its bounds in another order, so its scores are
pinned within 1e-9 — across methods, α values (endpoints included) and
coverage levels.  The other half pins the kernels one by one against
``tests/scalar_kernels.py``, the loops they were vectorized from.

Runs under a fixed, derandomized profile, applied per test, so CI runs
are deterministic.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import NumpyKernels
from repro.core.engine import GeoSocialEngine
from tests.conftest import query_with, random_instance
from tests.model import Model
from tests.scalar_kernels import PythonKernels

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
#: the methods whose scores may differ from the model's in the last bits
SUMS_IN_ANOTHER_ORDER = ("ais", "ais-minus")


def build_engine_and_model(n, seed, coverage, avg_degree=6.0):
    """An engine over one random dataset and the model of what it
    serves (same edges, locations and normalisers)."""
    graph, locations = random_instance(n, seed=seed, coverage=coverage, avg_degree=avg_degree)
    if locations.n_located == 0:
        locations.set(0, 0.5, 0.5)
    engine = GeoSocialEngine(graph, locations, num_landmarks=3, s=3, seed=3)
    return engine, Model.of_engine(engine)


def assert_ranks_like_the_model(result, want, method, context):
    got = [(nb.user, nb.score) for nb in result]
    assert [u for u, _ in got] == [u for u, _ in want], f"{context}: {got} vs {want}"
    if method in SUMS_IN_ANOTHER_ORDER:
        for (user, a), (_, b) in zip(got, want):
            assert abs(a - b) <= 1e-9, f"{context}: score for user {user}: {a!r} vs {b!r}"
    else:
        assert got == want, f"{context}: scores differ: {got} vs {want}"


@BACKEND_CI
@given(
    n=st.integers(min_value=24, max_value=90),
    seed=st.integers(min_value=0, max_value=2**16),
    coverage=st.sampled_from((0.5, 0.8, 1.0)),
    alpha=st.sampled_from(ALPHAS),
    k=st.sampled_from((1, 5, 12)),
)
def test_single_engine_backends_rank_identically(n, seed, coverage, alpha, k):
    """Every method ranks as the model does; a query user without a
    location below ``alpha == 1`` raises in both."""
    engine, model = build_engine_and_model(n, seed, coverage)
    queries = range(4)  # located or not
    for method in METHODS:
        for user in queries:
            try:
                want = model.answer(user, k, alpha)
            except ValueError:
                with pytest.raises(ValueError, match="no known location"):
                    query_with(engine, user, k, alpha, method)
                continue
            result = query_with(engine, user, k, alpha, method)
            assert_ranks_like_the_model(result, want, method, f"{method}@alpha={alpha}")


def test_backend_scores_bitwise_equal_on_ci_hardware():
    """The kernels agree with their scalar reference *bit-for-bit*
    (same sqrt/multiply/add sequence) on real columns — the property
    that makes tie-breaks portable — and so every non-AIS method's
    scores are the model's to the last bit."""
    engine, model = build_engine_and_model(n=70, seed=123, coverage=0.7)
    xs, ys = engine.locations.columns()
    scalar, vector = PythonKernels(), NumpyKernels()
    for user in list(engine.locations.located_users())[:5]:
        qx, qy = engine.locations.get(user)
        social = vector.sssp_column(engine.graph, user)
        assert social.tolist() == scalar.sssp_column(engine.graph, user)
        spatial = vector.euclidean_to_point(xs, ys, qx, qy)
        assert spatial.tolist() == scalar.euclidean_to_point(xs, ys, qx, qy)
        scores = vector.blend(0.7, 0.3, social, spatial)
        assert scores.tolist() == scalar.blend(0.7, 0.3, social.tolist(), spatial.tolist())
        assert vector.top_k_by_score(scores, None, 10) == scalar.top_k_by_score(
            scores.tolist(), None, 10
        )
        want = model.answer(user, 10, 0.3)
        for method in METHODS:
            if method not in SUMS_IN_ANOTHER_ORDER:
                result = query_with(engine, user, 10, 0.3, method)
                assert [(nb.user, nb.score) for nb in result] == want, method


#: every kernel ``NumpyKernels`` carries (the benchmark tracer wraps
#: eleven of them by name)
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
    """The list above *is* the kernel set (a kernel added to, or
    dropped from, one side only fails here), and the kernels and their
    scalar reference carry every entry."""
    for kernels in (PythonKernels(), NumpyKernels()):
        declared = {
            name for name, member in vars(type(kernels)).items()
            if callable(member) and not name.startswith("_")
        }
        assert declared == set(PROTOCOL), kernels.name


def test_engine_backend_survives_with_graph_and_rebuild():
    """Every engine carries one ``NumpyKernels`` of its own, a rebuilt
    one (``with_graph`` / ``rebuild_engine``) included."""
    from repro.service import QueryService

    graph, locations = random_instance(40, seed=5)
    engine = GeoSocialEngine(graph, locations, num_landmarks=2, s=3)
    assert isinstance(engine.kernels, NumpyKernels)
    rebuilt = engine.with_graph(graph)
    assert isinstance(rebuilt.kernels, NumpyKernels)

    with QueryService(engine, cache_size=8) as service:
        service.update_edge(0, 1, 0.5)
        swapped = service.rebuild_engine()
        assert isinstance(swapped.kernels, NumpyKernels)
