"""Unit contracts of the data-plane kernels, each run on
:class:`~repro.backend.NumpyKernels` and on its scalar reference
(``tests/scalar_kernels.py``), plus the columnar regression pins of the
refactor:

- ``LocationTable.bbox`` runs as one vectorized nanmin/nanmax pass;
- ``LocationTable.from_columns`` accepts lists, tuples and arrays
  uniformly and always copies.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.backend import NumpyKernels
from repro.graph.landmarks import LandmarkIndex
from repro.graph.socialgraph import SocialGraph
from repro.spatial.point import LocationTable, euclidean
from repro.utils.validation import COORDINATE_BOUND
from tests.scalar_kernels import PythonKernels, social_lower_bound_vertex

INF = math.inf
NAN = math.nan

#: the kernels under test and their scalar reference
KERNELS = {"python": PythonKernels, "numpy": NumpyKernels}


@pytest.fixture(params=list(KERNELS))
def kernels(request):
    return KERNELS[request.param]()


@pytest.fixture(scope="module")
def landmark_fixture():
    g = SocialGraph.from_edges(
        6, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (0, 3, 5.0)]
    )  # vertices 4, 5 disconnected
    return LandmarkIndex(g, [0, 2])


class TestEuclideanKernel:
    def test_matches_scalar_distance(self, kernels):
        table = LocationTable.from_columns([0.0, 0.3, NAN, 0.9], [0.0, 0.4, NAN, 0.1])
        xs, ys = table.columns()
        out = kernels.euclidean_to_point(xs, ys, 0.0, 0.0, [0, 1, 2, 3])
        assert float(out[0]) == 0.0
        assert float(out[1]) == 0.5
        assert float(out[2]) == INF
        assert float(out[3]) == euclidean(*table.get(3), 0.0, 0.0)

    def test_all_users_when_ids_omitted(self, kernels):
        table = LocationTable.from_columns([0.0, 3.0], [0.0, 4.0])
        xs, ys = table.columns()
        out = kernels.euclidean_to_point(xs, ys, 0.0, 0.0)
        assert [float(v) for v in out] == [0.0, 5.0]

    def test_nan_query_point_is_infinitely_far(self, kernels):
        table = LocationTable.from_columns([0.1, 0.2], [0.1, 0.2])
        xs, ys = table.columns()
        out = kernels.euclidean_to_point(xs, ys, NAN, NAN, [0, 1])
        assert [float(v) for v in out] == [INF, INF]

    def test_half_located_coordinate_yields_inf(self, kernels):
        # LocationTable never stores (finite, NaN) pairs, but the kernel
        # contract is per-coordinate: any NaN on either axis means
        # "infinitely far", on the kernels and their reference alike.
        xs = [0.3, NAN, 0.5]
        ys = [NAN, 0.2, 0.5]
        out = kernels.euclidean_to_point(xs, ys, 0.5, 0.5, [0, 1, 2])
        assert [float(v) for v in out] == [INF, INF, 0.0]
        out = kernels.euclidean_to_point(xs, ys, 0.5, 0.5)
        assert [float(v) for v in out] == [INF, INF, 0.0]

    def test_a_distance_at_the_coordinate_bound_is_finite_without_a_warning(self, kernels):
        # the input domain keeps |x|, |y| <= 2**500, so dx² + dy² stays
        # finite: users at the bound are a finite distance away, and
        # subnormal squares underflow to 0 quietly
        bound = COORDINATE_BOUND
        xs, ys = [-bound, 5e-324, bound], [0.0, -5e-324, bound]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = kernels.euclidean_to_point(xs, ys, 0.0, 0.0)
            far = kernels.euclidean_to_point(xs, ys, bound, -bound, [0, 2])
        assert [float(v) for v in out] == [bound, 0.0, euclidean(bound, bound, 0.0, 0.0)]
        assert [float(v) for v in far] == [euclidean(-bound, 0.0, bound, -bound), 2 * bound]
        assert all(math.isfinite(v) for v in far)


def test_the_scoring_tail_matches_the_scalar_reference():
    """The tail every dense scan and column hit pays over all n users,
    ``euclidean_to_point`` → ``blend`` → ``top_k_by_score``, runs in
    place on the numpy kernels and stays bit-equal to the scalar loops:
    NaN coordinates on either axis, ties at the k-th score, fewer than
    k finite scores, ``k >= n``, and a given id column as well as
    ``ids=None``."""
    rng = np.random.default_rng(44)
    fast, scalar = NumpyKernels(), PythonKernels()
    for trial in range(60):
        n = int(rng.integers(1, 50))
        # lattice coordinates and halves: equal distances and tied scores
        xs = rng.integers(0, 4, n) / 4.0
        ys = rng.integers(0, 4, n) / 4.0
        xs[rng.random(n) < 0.2] = NAN
        ys[rng.random(n) < 0.1] = NAN
        social = rng.integers(0, 6, n) / 2.0
        social[rng.random(n) < 0.3 * (trial % 4)] = INF  # often fewer than k finite
        given = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        for ids in (None, given):
            distances = fast.euclidean_to_point(xs, ys, 0.5, 0.25, ids)
            assert distances.tolist() == scalar.euclidean_to_point(xs, ys, 0.5, 0.25, ids)
            column = social if ids is None else social[ids]
            for w_social, w_spatial in ((0.0, 0.0), (0.0, 0.75), (0.5, 0.0), (0.5, 0.75)):
                scores = fast.blend(w_social, w_spatial, column, distances)
                assert scores.tolist() == scalar.blend(
                    w_social, w_spatial, column.tolist(), distances.tolist()
                )
                size = len(scores)
                for k in sorted({1, 2, size // 2 + 1, size, size + 3}):
                    want = scalar.top_k_by_score(scores.tolist(), None if ids is None else ids, k)
                    assert fast.top_k_by_score(scores, ids, k) == want, (trial, k)


class TestAltBoundKernel:
    def test_matches_vertex_lower_bound(self, kernels, landmark_fixture):
        lm = landmark_fixture
        query_vector = lm.vector(0)
        ids = [1, 2, 3, 4]
        out = kernels.alt_lower_bounds(lm, query_vector, ids)
        for pos, u in enumerate(ids):
            expected = social_lower_bound_vertex(query_vector, lm.vector(u))
            assert float(out[pos]) == expected

    def test_disconnected_sides(self, kernels, landmark_fixture):
        lm = landmark_fixture
        # query = disconnected vertex 4: inf vs finite -> inf bound;
        # vs the equally disconnected vertex 5 -> uninformative -> 0.
        query_vector = lm.vector(4)
        out = kernels.alt_lower_bounds(lm, query_vector, [0, 5])
        assert float(out[0]) == INF
        assert float(out[1]) == 0.0

    def test_digraph_takes_the_forward_side_only(self, kernels):
        # landmark 0: p(l,1) = 1, p(l,2) = 3.  From query 2 the
        # symmetric form |3 - 1| = 2 exceeds p(2 -> 1) = 0.5; only
        # p(l,v) - p(l,q) holds.  Vertex 3 is unreachable from l, so
        # from 2 as well.
        g = SocialGraph.from_edges(
            4, [(0, 1, 1.0), (1, 2, 2.0), (2, 1, 0.5), (3, 0, 1.0)], directed=True
        )
        lm = LandmarkIndex(g, [0])
        out = kernels.alt_lower_bounds(lm, lm.vector(2), [0, 1, 3])
        assert [float(v) for v in out] == [0.0, 0.0, INF]
        out = kernels.alt_lower_bounds(lm, lm.vector(1), [2])
        assert [float(v) for v in out] == [2.0]


class TestBlendKernel:
    def test_zero_weight_ignores_infinite_distance(self, kernels):
        assert [float(v) for v in kernels.blend(0.5, 0.0, [2.0, INF], [INF, INF])] == [1.0, INF]
        assert [float(v) for v in kernels.blend(0.0, 0.5, [INF, INF], [2.0, 4.0])] == [1.0, 2.0]
        assert [float(v) for v in kernels.blend(0.0, 0.0, [INF], [INF])] == [0.0]

    def test_blended(self, kernels):
        out = kernels.blend(0.5, 0.25, [2.0, 4.0], [4.0, 8.0])
        assert [float(v) for v in out] == [2.0, 4.0]


class TestTopKKernel:
    def test_ties_break_toward_smaller_id(self, kernels):
        scores = [0.5, 0.2, 0.5, INF, 0.2]
        ids = [10, 11, 3, 0, 4]
        picked = kernels.top_k_by_score(scores, ids, 3)
        # (0.2, 4), (0.2, 11), (0.5, 3): positions 4, 1, 2
        assert [int(i) for i in picked] == [4, 1, 2]

    def test_infinite_scores_never_qualify(self, kernels):
        assert kernels.top_k_by_score([INF, INF], [0, 1], 2) == []

    def test_nonpositive_k_selects_nothing(self, kernels):
        assert kernels.top_k_by_score([0.1, 0.2], [0, 1], 0) == []
        assert kernels.top_k_by_score([0.1, 0.2], [0, 1], -1) == []

    def test_partitioned_selection_keeps_boundary_ties_exact(self, kernels):
        # Many entries tie exactly at the k-th score: the argpartition
        # fast path must widen to every tie before ordering by id.
        scores = [0.9] * 50 + [0.1] * 3 + [0.5] * 40
        ids = list(range(200, 250)) + [7, 3, 5] + list(range(100, 140))
        picked = kernels.top_k_by_score(scores, ids, 8)
        picked_ids = [ids[i] for i in picked]
        assert picked_ids == [3, 5, 7, 100, 101, 102, 103, 104]


    def test_positions_are_ids_when_ids_is_none_or_a_range(self, kernels):
        rng = np.random.default_rng(3)
        scores = rng.integers(0, 12, size=300) / 8.0  # heavy ties
        scores[rng.integers(0, 300, size=40)] = INF
        scores[7] = NAN
        for k in (1, 5, 60, 299, 1000):
            want = kernels.top_k_by_score(scores, list(range(300)), k)
            assert kernels.top_k_by_score(scores, None, k) == want
            assert kernels.top_k_by_score(scores, range(300), k) == want
            # an offset range orders ties exactly as positions do
            assert kernels.top_k_by_score(scores, range(50, 350), k) == want
        # a descending range is a real id column, not the shortcut
        down = kernels.top_k_by_score([0.5, 0.5, 0.5], range(2, -1, -1), 2)
        assert [int(i) for i in down] == [2, 1]


def test_whole_table_scan_builds_no_id_array(monkeypatch):
    """``dense_scan`` used to spend two thirds of its time turning
    ``range(n)`` into an array: on the numpy leg neither ``ids=None``
    nor a ``range`` is ever materialised, and the scan hands the kernel
    ``None``."""
    from repro.backend import numpy_backend
    from repro.core.ranking import Normalization, RankingFunction
    from repro.social.scan import dense_scan

    real = np.asarray

    def guarded(obj, *args, **kwargs):
        assert not isinstance(obj, range), "an O(n) id array was built"
        return real(obj, *args, **kwargs)

    kernels = NumpyKernels()
    n = 64
    scores = real([(i * 7 % 13) / 13.0 for i in range(n)], dtype=np.float64)
    want = kernels.top_k_by_score(scores, list(range(n)), 9)
    seen = []
    original = kernels.top_k_by_score
    monkeypatch.setattr(
        kernels, "top_k_by_score",
        lambda s, ids, k: seen.append(ids) or original(s, ids, k), raising=False,
    )
    monkeypatch.setattr(numpy_backend.np, "asarray", guarded)
    assert original(scores, None, 9) == want
    assert original(scores, range(n), 9) == want
    table = LocationTable.from_columns([i / n for i in range(n)], [0.5] * n)
    rank = RankingFunction(0.5, Normalization(p_max=1.0, d_max=1.0))
    neighbors, finite = dense_scan(kernels, rank, scores, table, 0, 5)
    assert seen == [None] and len(neighbors) == 5 and finite == n - 1
    assert all(type(nb.user) is int and type(nb.score) is float for nb in neighbors)


class TestEnvelopeKernels:
    def test_nanbbox(self, kernels):
        table = LocationTable.from_columns([0.2, NAN, 0.8, 0.5], [0.9, NAN, 0.1, 0.4])
        xs, ys = table.columns()
        assert kernels.nanbbox(xs, ys, [0, 1, 2, 3]) == (0.2, 0.1, 0.8, 0.9)
        assert kernels.nanbbox(xs, ys, [1]) is None

    def test_nanbbox_half_located_rows_are_skipped(self, kernels):
        # Per-coordinate contract, matching euclidean_to_point: NaN on
        # either axis excludes the point from the envelope.
        assert kernels.nanbbox([0.5, 1.0], [NAN, 2.0], [0, 1]) == (1.0, 2.0, 1.0, 2.0)
        assert kernels.nanbbox([NAN, 0.5], [1.0, NAN]) is None

    def test_summary_minmax(self, kernels, landmark_fixture):
        lm = landmark_fixture
        m_check, m_hat = kernels.summary_minmax(lm, [1, 2, 3])
        vectors = [lm.vector(u) for u in (1, 2, 3)]
        for j in range(lm.m):
            assert m_check[j] == min(v[j] for v in vectors)
            assert m_hat[j] == max(v[j] for v in vectors)

    def test_dense_from_dict_and_count_finite(self, kernels):
        column = kernels.dense_from_dict(4, {1: 2.0, 3: 0.5}, INF)
        assert [float(v) for v in column] == [INF, 2.0, INF, 0.5]
        assert kernels.count_finite(column) == 2


class TestColumnarRegressions:
    def test_bbox_uses_columns_not_per_user_calls(self):
        pytest.importorskip("numpy")
        table = LocationTable.from_columns([0.1, 0.9, NAN], [0.2, 0.8, NAN])
        calls = {"n": 0}
        original = LocationTable.has_location

        def counting(self, user):
            calls["n"] += 1
            return original(self, user)

        try:
            LocationTable.has_location = counting
            box = table.bbox()
            subset = table.bbox([0, 1])
        finally:
            LocationTable.has_location = original
        assert (box.minx, box.miny, box.maxx, box.maxy) == (0.1, 0.2, 0.9, 0.8)
        assert (subset.minx, subset.maxx) == (0.1, 0.9)
        assert calls["n"] == 0  # one vectorized nanmin/nanmax pass


class TestFromColumns:
    def test_from_columns_is_uniform_over_sequence_types(self):
        a = LocationTable.from_columns([0.0, 1.0], (0.0, 1.0))
        b = LocationTable.from_columns(a.xs, a.ys)  # arrays round-trip
        assert b.get(1) == (1.0, 1.0)
        b.set(0, 9.0, 9.0)  # copies, never aliases the source column
        assert float(a.xs[0]) == 0.0
        assert isinstance(a.xs, np.ndarray) and a.xs.dtype == np.float64
