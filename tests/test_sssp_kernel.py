"""The ``sssp_column`` kernel: one full expansion, three legs, one answer.

Every full social-distance expansion in the tree (bruteforce, landmark
rows, diameter sweeps, the correlated-dataset anchor, subscription
repairs, the column step's ``exhaust`` branch) is one
``Kernels.sssp_column`` call, and the incremental searchers next to it
still settle vertices with :class:`~repro.graph.traversal.
DijkstraIterator`.  The exactness contract between them is
**bit-identity**, not a tolerance: a final Dijkstra label is the
``min`` over in-edges ``(u, v)`` of ``fl(d[u] + w)`` with ``d[u]``
final, so heap order and tie-breaks cannot move it.  This file pins
that on three legs —

- ``PythonKernels`` (the iterator run to exhaustion),
- ``NumpyKernels`` over ``scipy.sparse.csgraph.dijkstra``,
- ``NumpyKernels`` with the scipy import blocked (the in-kernel
  fallback every scipy-less install runs)

— over random weighted graphs built to provoke the cases where an
implementation *could* drift: equal-length alternative paths, weights
spanning 1e-4…1, disconnected components, directed edges, an isolated
source.
"""

from __future__ import annotations

import math
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import PythonKernels, resolve_backend
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import DijkstraIterator

INF = math.inf

try:
    import scipy.sparse.csgraph  # noqa: F401

    HAS_SCIPY = True
except ImportError:  # pragma: no cover - the scipy-less CI legs
    HAS_SCIPY = False

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


def block_scipy(monkeypatch) -> None:
    """Make every ``import scipy…`` raise, loaded or not."""
    for name in [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setitem(sys.modules, "scipy", None)


def legs():
    """``(label, kernels, needs_block)`` for the legs this interpreter
    can run."""
    out = [("python", PythonKernels(), False)]
    if HAS_SCIPY:
        out.append(("numpy+scipy", resolve_backend("numpy"), False))
    out.append(("numpy-scipy-blocked", resolve_backend("numpy"), True))
    return out


@SSSP_CI
@given(case=weighted_graphs())
def test_sssp_column_is_bit_identical_to_the_iterator_on_every_leg(case):
    graph, source = case
    want = bits(reference_column(graph, source))
    for label, kernels, blocked in legs():
        # a fresh graph per leg: the array handle parked on it by the
        # scipy leg must not be what the blocked leg reads
        twin = SocialGraph.from_csr(
            graph.n, graph.indptr, graph.nbrs, graph.wts, graph.directed
        )
        with pytest.MonkeyPatch.context() as patch:
            if blocked:
                block_scipy(patch)
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
    for label, kernels, blocked in legs():
        with pytest.MonkeyPatch.context() as patch:
            if blocked:
                block_scipy(patch)
            graph._csr = None
            from_hub = kernels.sssp_column(graph, 0)
            from_island = kernels.sssp_column(graph, 5)
        assert bits(from_hub) == bits(reference_column(graph, 0)), label
        assert float(from_hub[4]) == (0.1 + 0.2) + 0.3, label
        assert float(from_hub[5]) == INF, label
        assert [float(v) for v in from_island] == [INF] * 5 + [0.0], label


def test_directed_edges_are_followed_forward_only():
    graph = SocialGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 0.25)], directed=True)
    for label, kernels, blocked in legs():
        with pytest.MonkeyPatch.context() as patch:
            if blocked:
                block_scipy(patch)
            graph._csr = None
            assert [float(v) for v in kernels.sssp_column(graph, 0)] == [0.0, 0.5, 0.75], label
            assert [float(v) for v in kernels.sssp_column(graph, 2)] == [INF, INF, 0.0], label


@pytest.mark.parametrize("source", [-1, 3])
def test_source_out_of_range_is_a_value_error_on_every_leg(source):
    """scipy alone would wrap ``-1`` to the last vertex."""
    graph = SocialGraph.from_edges(3, [(0, 1, 1.0)])
    for label, kernels, _ in legs():
        with pytest.raises(ValueError, match="out of range"):
            kernels.sssp_column(graph, source)


@pytest.mark.skipif(not HAS_SCIPY, reason="needs the scipy leg")
def test_array_handle_is_built_once_per_graph_under_concurrent_first_queries():
    """Eight threads ask for their first column of one fresh graph at
    once: one handle is built, every thread reads the same object, and
    every column is right."""
    n = 400
    edges = [(v, (v * 7 + 1) % n, 0.001 + (v % 13) / 13.0) for v in range(n) if (v * 7 + 1) % n != v]
    graph = SocialGraph.from_edges(n, edges)
    kernels = resolve_backend("numpy")
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


def test_graph_layer_build_paths_agree_with_and_without_scipy():
    """Landmark rows, the diameter sweep and bruteforce all go through
    the kernel, so blocking scipy must change none of them."""
    pytest.importorskip("numpy")
    from repro.core.engine import GeoSocialEngine
    from tests.conftest import random_instance

    graph, locations = random_instance(60, seed=21, coverage=0.8)
    fast = GeoSocialEngine(graph, locations.copy(), num_landmarks=3, s=3, seed=2)
    twin = SocialGraph.from_csr(graph.n, graph.indptr, graph.nbrs, graph.wts, graph.directed)
    with pytest.MonkeyPatch.context() as patch:
        block_scipy(patch)
        slow = GeoSocialEngine(twin, locations.copy(), num_landmarks=3, s=3, seed=2)
        assert twin._csr is None
        user = next(iter(slow.locations.located_users()))
        got = slow.query(user, 8, 0.4, "bruteforce")
    assert fast.landmarks.landmarks == slow.landmarks.landmarks
    assert [bits(row) for row in fast.landmarks.dist] == [bits(row) for row in slow.landmarks.dist]
    assert fast.normalization.p_max == slow.normalization.p_max
    want = fast.query(user, 8, 0.4, "bruteforce")
    assert (got.users, got.scores) == (want.users, want.scores)
    assert got.stats.pops_social == want.stats.pops_social
