"""The ``sssp_column`` kernel: one expansion, two legs, one answer —
and ``bounded``, the method built on its radius-limited form.

Every full social-distance expansion in the tree (bruteforce, landmark
rows, diameter sweeps, the correlated-dataset anchor, subscription
repairs) is one ``Kernels.sssp_column`` call, and the incremental
searchers next to it
still settle vertices with :class:`~repro.graph.traversal.
DijkstraIterator`.  The exactness contract between them is
**bit-identity**, not a tolerance: a final Dijkstra label is the
``min`` over in-edges ``(u, v)`` of ``fl(d[u] + w)`` with ``d[u]``
final, so heap order and tie-breaks cannot move it.  This file pins
that on two legs —

- the scalar reference ``PythonKernels`` of ``tests/scalar_kernels.py``
  (the iterator run to exhaustion),
- ``NumpyKernels`` over ``scipy.sparse.csgraph.dijkstra``

— over random weighted graphs built to provoke the cases where an
implementation *could* drift: equal-length alternative paths, weights
spanning 1e-4…1, disconnected components, directed edges, an isolated
source.

With ``limit=r`` the kernel settles only the ball of radius ``r``; the
second half of this file pins that every label ``<= r`` is the final
one (a label *equal* to ``r`` included) and that ``method="bounded"`` —
first ball, radius from its k-th score, one more expansion, one dense
scan — answers bit-identically to the Definition 1 model of
``tests/model.py``, with and without a column cache.
"""

from __future__ import annotations

import math
import random
import sys
import threading
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import NumpyKernels
from repro.core.bounded import BoundedSearch, _pooled
from repro.core.engine import GeoSocialEngine
from repro.core.ranking import Normalization
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import DijkstraIterator
from repro.spatial.point import LocationTable
from repro.utils.validation import radius_for
from tests.model import Model
from tests.scalar_kernels import PythonKernels

INF = math.inf

SSSP_CI = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: few distinct weights, several of them sums of others: random graphs
#: over this alphabet are full of equal-length alternative paths
TIE_WEIGHTS = (1e-4, 2e-4, 3e-4, 0.125, 0.25, 0.375, 0.5, 1.0)


@st.composite
def weighted_graphs(draw):
    """``(graph, source)``: sparse enough to leave components apart
    (and sometimes the source on its own), dense enough for ties."""
    n = draw(st.integers(min_value=1, max_value=24))
    directed = draw(st.booleans())
    weight = st.one_of(
        st.sampled_from(TIE_WEIGHTS),
        st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
    )
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda uv: uv[0] != uv[1])
    edges = draw(
        st.lists(st.tuples(pairs, weight), max_size=3 * n) if n > 1 else st.just([])
    )
    graph = SocialGraph.from_edges(
        n, [(u, v, w) for (u, v), w in edges], directed=directed
    )
    return graph, draw(st.integers(min_value=0, max_value=n - 1))


def reference_column(graph, source) -> list:
    settled = DijkstraIterator(graph, source).run_to_completion()
    return [settled.get(v, INF) for v in range(graph.n)]


def bits(column) -> list:
    """Exact float images, so ``==`` cannot hide a last-digit drift."""
    return [float(value).hex() for value in column]


def legs():
    """``(label, kernels)``: the scalar oracle and scipy's Dijkstra."""
    return [("python", PythonKernels()), ("numpy+scipy", NumpyKernels())]


@SSSP_CI
@given(case=weighted_graphs())
def test_sssp_column_is_bit_identical_to_the_iterator_on_every_leg(case):
    graph, source = case
    want = bits(reference_column(graph, source))
    for label, kernels in legs():
        # a fresh graph per leg, to see which leg parks a handle on it
        twin = SocialGraph.from_csr(
            graph.n, graph.indptr, graph.nbrs, graph.wts, graph.directed
        )
        column = kernels.sssp_column(twin, source)
        # the leg really is the leg: only the scipy one parks a handle
        assert (twin._csr is not None) == (label == "numpy+scipy"), label
        assert len(column) == graph.n, label
        assert bits(column) == want, f"{label}: source {source} of {graph!r}"
        assert kernels.count_finite(column) == sum(1 for v in want if v != "inf"), label


def test_equal_length_alternative_paths_and_an_isolated_source():
    """The named cases, spelled out: two routes of exactly equal
    length, a float sum that is not associative, and a source with no
    edges at all."""
    graph = SocialGraph.from_edges(
        6,
        [
            (0, 1, 0.1), (1, 3, 0.2),      # 0 -> 3 via 1: fl(0.1 + 0.2)
            (0, 2, 0.2), (2, 3, 0.1),      # 0 -> 3 via 2: fl(0.2 + 0.1)
            (3, 4, 0.3),
        ],
    )  # vertex 5 isolated
    for label, kernels in legs():
        from_hub = kernels.sssp_column(graph, 0)
        from_island = kernels.sssp_column(graph, 5)
        assert bits(from_hub) == bits(reference_column(graph, 0)), label
        assert float(from_hub[4]) == (0.1 + 0.2) + 0.3, label
        assert float(from_hub[5]) == INF, label
        assert [float(v) for v in from_island] == [INF] * 5 + [0.0], label


def test_directed_edges_are_followed_forward_only():
    graph = SocialGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 0.25)], directed=True)
    for label, kernels in legs():
        assert [float(v) for v in kernels.sssp_column(graph, 0)] == [0.0, 0.5, 0.75], label
        assert [float(v) for v in kernels.sssp_column(graph, 2)] == [INF, INF, 0.0], label


@pytest.mark.parametrize("source", [-1, 3])
def test_source_out_of_range_is_a_value_error_on_every_leg(source):
    """scipy alone would wrap ``-1`` to the last vertex."""
    graph = SocialGraph.from_edges(3, [(0, 1, 1.0)])
    for label, kernels in legs():
        with pytest.raises(ValueError, match="out of range"):
            kernels.sssp_column(graph, source)


def test_array_handle_is_built_once_per_graph_under_concurrent_first_queries():
    """Eight threads ask for their first column of one fresh graph at
    once: one handle is built, every thread reads the same object, and
    every column is right."""
    n = 400
    edges = [(v, (v * 7 + 1) % n, 0.001 + (v % 13) / 13.0) for v in range(n) if (v * 7 + 1) % n != v]
    graph = SocialGraph.from_edges(n, edges)
    kernels = NumpyKernels()
    assert graph._csr is None
    start = threading.Barrier(8)
    handles, columns, errors = [], {}, []

    def first_query(source):
        try:
            start.wait(timeout=10)
            columns[source] = kernels.sssp_column(graph, source)
            handles.append(graph._csr)
        except Exception as err:  # surfaced below
            errors.append(err)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=first_query, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(handles) == 8 and all(h is handles[0] for h in handles)
    for source, column in columns.items():
        assert bits(column) == bits(reference_column(graph, source))


# -- limit=r: the radius-limited expansion -------------------------------------


@SSSP_CI
@given(case=weighted_graphs(), data=st.data())
def test_limited_column_is_the_unbounded_one_inside_the_radius_on_every_leg(case, data):
    """For any ``limit``: entries ``<= limit`` are bit-identical to the
    unbounded column, everything else reads ``inf`` — and a limit equal
    to an existing label keeps that vertex."""
    graph, source = case
    full = reference_column(graph, source)
    labels = sorted({v for v in full if v != INF})
    limit = data.draw(
        st.one_of(
            st.sampled_from(labels),  # a label exactly on the radius
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        )
    )
    want = bits([v if v <= limit else INF for v in full])
    for label, kernels in legs():
        column = kernels.sssp_column(graph, source, limit=limit)
        assert len(column) == graph.n, label
        assert bits(column) == want, f"{label}: limit {limit!r} from {source} of {graph!r}"


def test_limit_edge_cases_agree_on_every_leg():
    graph = SocialGraph.from_edges(4, [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 0.25)])
    for label, kernels in legs():
        column = kernels.sssp_column
        assert [float(v) for v in column(graph, 0, limit=0.0)] == [0.0, INF, INF, INF], label
        assert [float(v) for v in column(graph, 0, limit=0.75)] == [0.0, 0.5, 0.75, INF], label
        assert bits(column(graph, 0, limit=INF)) == bits(column(graph, 0)), label
        assert bits(column(graph, 0, limit=None)) == bits(column(graph, 0)), label
        with pytest.raises(ValueError):
            column(graph, 0, limit=-1.0)


# -- bounded == bruteforce -----------------------------------------------------


def tie_prone_instance(n, seed, coverage, avg_degree=3.0):
    """A sparse graph over :data:`TIE_WEIGHTS` (equal distances
    everywhere, several components) with ``coverage`` of its users
    located on a coarse lattice (equal spatial distances too)."""
    rng = random.Random(seed)
    edges = {}
    for _ in range(int(n * avg_degree / 2)):
        u, v = rng.sample(range(n), 2)
        edges[(min(u, v), max(u, v))] = rng.choice(TIE_WEIGHTS)
    graph = SocialGraph.from_edges(n, [(u, v, w) for (u, v), w in edges.items()])
    locations = LocationTable.empty(n)
    for u in range(n):
        if rng.random() < coverage:
            locations.set(u, rng.randrange(6) / 5.0, rng.randrange(6) / 5.0)
    return graph, locations


def rows(result):
    return [(nb.user, nb.score, nb.social, nb.spatial) for nb in result]


@settings(parent=SSSP_CI, max_examples=25)
@given(
    n=st.integers(min_value=30, max_value=110),
    seed=st.integers(min_value=0, max_value=10_000),
    coverage=st.sampled_from((0.5, 0.9, 1.0)),
    alpha=st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)),
    k=st.sampled_from((1, 3, 10, 500)),
)
def test_bounded_is_bit_identical_to_bruteforce_on_every_leg(n, seed, coverage, alpha, k):
    """ids, scores, tie-breaks, ``Neighbor.social`` / ``.spatial`` —
    over tie-prone weights, several components, unlocated candidates,
    an unlocated query user, fewer than ``k`` reachable users,
    ``k >= n``, pure social ``alpha = 1`` (unlocated users are
    legitimate answers) and the ``alpha = 0`` route to ``spa``; against
    the Definition 1 model (bruteforce's conventions), with and without
    a column cache."""
    graph, locations = tie_prone_instance(n, seed, coverage)
    if locations.n_located == 0:
        locations.set(0, 0.4, 0.4)
    located = sorted(locations.located_users())
    unlocated = [u for u in range(n) if not locations.has_location(u)]
    users = located[:2] + located[-1:] + unlocated[:1]
    engines = {
        cache_bytes: GeoSocialEngine(
            graph, locations.copy(), num_landmarks=2, s=3, seed=1,
            social_cache_bytes=cache_bytes,
        )
        for cache_bytes in (None, 0)
    }
    model = Model.of_engine(engines[0])
    for cache_bytes, engine in engines.items():
        context = f"cache={cache_bytes}"
        for user in users:
            if alpha < 1.0 and not locations.has_location(user):
                # one rule for every method below alpha == 1
                with pytest.raises(ValueError, match="no known location"):
                    engine.query(user, k, alpha, "bounded")
                continue
            want = model.rows(user, k, alpha)
            # twice: the second may scan a column the first cached
            for attempt in range(2):
                got = engine.query(user, k, alpha, "bounded")
                assert rows(got) == want, f"{context} u={user} #{attempt}"


def test_a_k_past_the_float_range_answers_like_bruteforce():
    """``k = 10**400`` on a cold user used to overflow the first-ball
    prediction (``k / (m * share)``).  The prediction reads such a
    ``k`` as ``n``; the answer is everyone reachable, as bruteforce's,
    and ``result.k`` stays as requested."""
    from tests.conftest import random_instance

    k = 10**400
    graph, locations = random_instance(200, seed=9, coverage=0.8)
    user = sorted(locations.located_users())[0]
    engine = GeoSocialEngine(
        graph, locations, num_landmarks=2, s=3, seed=1, social_cache_bytes=0
    )
    want = Model.of_engine(engine).rows(user, k, 0.3)
    for method in ("auto", "bounded", "bruteforce"):
        got = engine.query(user, k, 0.3, method)
        assert got.k == k and got.method == ("bruteforce" if method == "bruteforce" else "bounded")
        assert rows(got) == want, method


@pytest.mark.parametrize("weight", [1.0, 0.25])
@pytest.mark.parametrize("alpha", [5e-324, 2.225073858507203e-309])
def test_a_subnormal_alpha_answers_like_bruteforce(alpha, weight):
    """On a 3-user path, a subnormal ``alpha`` made the first-ball
    prediction's ``w_spatial / w_social`` overflow, and ``inf`` times
    the spatial profile's zero entry raised NumPy's invalid-value
    warning.  At ``P_max = 2`` (unit weights) the smallest ``alpha``
    underflows the social weight to 0, which ``bounded`` refused.  Both
    now answer like bruteforce and warn of nothing."""
    graph = SocialGraph.from_edges(3, [(0, 1, weight), (1, 2, weight)])
    locations = LocationTable.from_columns([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    engine = GeoSocialEngine(graph, locations)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = engine.query(0, k=2, alpha=alpha, method="auto")
        want = engine.query(0, k=2, alpha=alpha, method="bruteforce")
    assert got.method == "bounded" and rows(got) == rows(want)


def ring_of_cliques(n=240):
    """Unit-fraction weights along a ring with chords, everyone at one
    of two points: every score is shared by many users, so the k-th
    score always has ties exactly on the radius it implies."""
    edges = [(v, (v + 1) % n, 0.25) for v in range(n)]
    edges += [(v, (v + 7) % n, 0.5) for v in range(0, n, 3)]
    graph = SocialGraph.from_edges(n, edges)
    locations = LocationTable.from_columns(
        [0.1 if v % 2 else 0.9 for v in range(n)], [0.5] * n
    )
    return graph, locations


@pytest.mark.parametrize("p_max", [1.0, 3.7, 0.3])
@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
def test_a_tie_exactly_on_the_radius_is_inside(alpha, p_max):
    graph, locations = ring_of_cliques()
    norm = Normalization(p_max=p_max, d_max=1.0)
    engine = GeoSocialEngine(
        graph, locations, num_landmarks=2, s=3, seed=1, normalization=norm,
        social_cache_bytes=0,
    )
    model = Model.of_engine(engine)
    bounded_radii = set()
    for user in (0, 5, 118):
        for k in (1, 4, 9):
            want = model.rows(user, k, alpha)
            assert rows(engine.query(user, k, alpha, "bruteforce")) == want
            if alpha == 1.0:  # the searcher refuses; its route (SFA) answers
                assert rows(engine.query(user, k, alpha, "bounded")) == want
                continue
            got = engine.searcher("bounded").search(user, k, alpha)
            assert rows(got) == want, f"u={user} k={k}"
            bounded_radii.add(got.stats.extra["bounded_radius"])
    # the radius path really ran (not only the unbounded fallback)
    assert alpha == 1.0 or any(r < INF for r in bounded_radii)


@SSSP_CI
@given(
    p=st.floats(min_value=1e-6, max_value=1e6),
    w=st.floats(min_value=1e-6, max_value=1e6),
)
def test_radius_for_puts_the_boundary_strictly_inside(p, w):
    """``r = radius_for(fl(w·p), w)``: ``fl(w·r) > fl(w·p)``, hence
    ``r > p`` — the user whose score *is* the threshold is in the ball,
    and so is everyone tied with it."""
    theta = w * p
    r = radius_for(theta, w)
    assert w * r > theta and r > p
    assert r <= p * (1 + 1e-12)  # a few ulps, not a wider ball


def test_radius_for_gives_up_to_unbounded_in_the_subnormals():
    assert radius_for(0.0, 1e-3) == INF


def test_isolated_users_never_source_the_distance_profile(monkeypatch):
    """A third of the users have no edge: a profile source drawn among
    them reaches only itself and shrinks every radius the profile
    reads (the n/25 ball's radius read 0.0070 against 0.0133 from a
    connected source).  Sources are drawn among users with an edge."""
    from repro import gowalla_like

    connected = gowalla_like(n=3000)
    n = 4500
    graph = SocialGraph.from_edges(n, list(connected.graph.edges()))
    xs, ys = connected.locations.columns()
    locations = LocationTable.from_columns(
        list(xs) + [math.nan] * (n - 3000), list(ys) + [math.nan] * (n - 3000)
    )
    kernels = NumpyKernels()
    sources = []
    kernel = kernels.sssp_column

    def recorded(graph, source, *args, **kwargs):
        sources.append(source)
        return kernel(graph, source, *args, **kwargs)

    monkeypatch.setattr(kernels, "sssp_column", recorded)
    bounded = BoundedSearch(graph, locations, Normalization(1.0, 1.0), kernels=kernels)
    radius = bounded._radius_holding(n // 25)
    assert len(sources) == 3 and all(graph.degree(s) > 0 for s in sources)
    # every source reaches its whole component, and the profile says so
    assert len(bounded._sample_profiles()[0]) == 3000
    single = sorted(kernel(graph, sources[0]))[n // 25 - 1]
    assert radius == pytest.approx(single, rel=0.5)


def test_the_profiles_draw_what_list_draws_would():
    """``random.Random.choice`` indexes the id arrays exactly as it
    indexes lists: the profiles are those of list draws, bit for bit."""
    from tests.conftest import random_instance

    graph, locations = random_instance(300, seed=8, coverage=0.6, avg_degree=1.5)
    bounded = BoundedSearch(graph, locations, Normalization(1.0, 1.0))
    social, spatial, share = bounded._sample_profiles()
    kernels = NumpyKernels()
    rng = random.Random(graph.n)
    sources = [v for v in range(graph.n) if graph.degree(v)]
    located = list(locations.located_users())
    assert len(sources) < graph.n and len(located) < graph.n
    columns = [kernels.sssp_column(graph, rng.choice(sources)) for _ in range(3)]
    xs, ys = locations.columns()
    distances = [
        kernels.euclidean_to_point(xs, ys, *locations.get(rng.choice(located))) for _ in range(3)
    ]
    assert social.tolist() == _pooled(columns)[2::3].tolist()
    assert spatial.tolist() == _pooled(distances).tolist()
    assert share == len(located) / graph.n


def test_a_radius_column_is_never_cached_and_an_unbounded_one_is():
    """The column step stores what ``bounded`` expanded only when it
    came back unbounded; a cached full column then answers ``bounded``
    like every forward method, with no expansion at all."""
    from tests.conftest import random_instance

    graph, locations = random_instance(400, seed=5, coverage=1.0)
    engine = GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=2)
    cache = engine.social_cache
    users = sorted(locations.located_users())
    radius_users, full_users = [], []
    for user in users[:40]:
        result = engine.query(user, 2, 0.95, "bounded")
        stats = result.stats
        assert stats.extra["bounded_passes"] in (1, 2)
        if stats.extra["bounded_radius"] < INF:
            radius_users.append(user)
            assert not cache.contains_full(user)
            assert 0 < stats.pops_social < graph.n  # a ball, not the graph
        else:
            full_users.append(user)
            assert cache.contains_full(user)
        want = engine.searcher("bruteforce").search(user, 2, 0.95)
        assert rows(result) == rows(want)
    assert radius_users, "no query stopped at a radius"
    assert cache.bytes_used == len(cache) * 8 * graph.n  # columns only
    # alpha small: the radius covers the graph, the column is kept ...
    user = radius_users[0]
    first = engine.query(user, 2, 0.05, "bounded")
    assert first.stats.extra["bounded_radius"] == INF and cache.contains_full(user)
    assert first.stats.pops_social == engine.kernels.count_finite(cache.peek_full(user))
    # ... and answers the next bounded query without expanding anything
    again = engine.query(user, 2, 0.95, "bounded")
    assert again.stats.extra.get("social_column_hits") == 1
    assert "bounded_passes" not in again.stats.extra
    assert rows(again) == rows(engine.searcher("bruteforce").search(user, 2, 0.95))

