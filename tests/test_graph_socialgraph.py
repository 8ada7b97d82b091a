"""Unit tests for the CSR social graph."""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import gowalla_like
from repro.datasets.generators import barabasi_albert_edges
from repro.datasets.weights import degree_product_weights
from repro.graph.socialgraph import SocialGraph

TRIANGLE = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)]


class TestConstruction:
    def test_from_edges_undirected_stores_both_directions(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        assert sorted(dict(g.neighbors(0)).items()) == [(1, 1.0), (2, 4.0)]
        assert sorted(dict(g.neighbors(1)).items()) == [(0, 1.0), (2, 2.0)]
        assert g.num_edges == 3

    def test_directed_keeps_one_direction(self):
        g = SocialGraph.from_edges(2, [(0, 1, 1.0)], directed=True)
        assert dict(g.neighbors(0)) == {1: 1.0}
        assert dict(g.neighbors(1)) == {}

    def test_duplicate_edges_keep_min_weight(self):
        g = SocialGraph.from_edges(2, [(0, 1, 5.0), (1, 0, 2.0)])
        assert g.edge_weight(0, 1) == 2.0
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            SocialGraph.from_edges(2, [(1, 1, 1.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SocialGraph.from_edges(2, [(0, 5, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            SocialGraph.from_edges(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError):
            SocialGraph.from_edges(2, [(0, 1, -3.0)])

    def test_isolated_vertices_allowed(self):
        g = SocialGraph.from_edges(5, [(0, 1, 1.0)])
        assert g.degree(4) == 0
        assert g.n == 5


class TestAccessors:
    def test_degree_and_average(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        assert g.degree(0) == 2
        assert g.average_degree == pytest.approx(2.0)
        assert g.max_degree == 2

    def test_has_edge_and_weight(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 1) if g.n else True
        assert g.edge_weight(1, 2) == 2.0
        assert g.edge_weight(0, 0) is None

    def test_edges_iterates_each_once(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        assert sorted(g.edges()) == sorted(TRIANGLE)

    def test_reverse_directed(self):
        g = SocialGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)], directed=True)
        rev = g.reverse()
        assert dict(rev.neighbors(1)) == {0: 1.0}
        assert dict(rev.neighbors(2)) == {1: 2.0}

    def test_reverse_undirected_is_self(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        assert g.reverse() is g


class TestDerived:
    def test_subgraph_relabels_and_keeps_internal_edges(self):
        g = SocialGraph.from_edges(4, TRIANGLE + [(2, 3, 1.0)])
        sub, mapping = g.subgraph([0, 1, 3])
        assert sub.n == 3
        # Only the (0,1) edge survives; 3 connects to 2 which is absent.
        assert sorted(sub.edges()) == [(mapping[0], mapping[1], 1.0)]

    @pytest.mark.parametrize("directed", [False, True])
    def test_subgraph_lists_edges_as_a_walk_over_its_vertices_meets_them(self, directed):
        """Each kept edge sits where a walk over ``vertices``, in the
        order given, meets it (an undirected edge at its lower new id)."""
        rng = random.Random(4)
        pairs = (rng.sample(range(60), 2) for _ in range(150))
        g = SocialGraph.from_edges(60, [(u, v, rng.choice((0.5, 1.0, 2.0))) for u, v in pairs],
                                   directed)
        vertices = rng.sample(range(60), 35)
        mapping = {old: new for new, old in enumerate(vertices)}
        walked = [
            (mapping[old_u], mapping[old_v], w)
            for old_u in vertices
            for old_v, w in g.neighbors(old_u)
            if old_v in mapping and (directed or mapping[old_u] < mapping[old_v])
        ]
        sub, got = g.subgraph(vertices)
        assert got == mapping
        assert csr(sub) == csr(SocialGraph.from_edges(35, walked, directed))

    def test_with_edge_update_change_weight(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        # either orientation names the one undirected edge
        g2 = g.with_edge_updates({(1, 0): 9.0})
        assert g2.edge_weight(0, 1) == g2.edge_weight(1, 0) == 9.0
        assert g2.num_edges == 3
        assert g.edge_weight(0, 1) == 1.0  # original untouched

    def test_with_edge_update_insert_and_delete(self):
        g = SocialGraph.from_edges(3, [(0, 1, 1.0)])
        # one batch: insert, delete, and a delete of an absent edge
        g2 = g.with_edge_updates({(1, 2): 0.5, (0, 1): None, (0, 2): None})
        assert sorted(g2.edges()) == [(1, 2, 0.5)]
        assert sorted(g.with_edge_updates({}).edges()) == [(0, 1, 1.0)]

    def test_with_edge_updates_directed_keeps_orientations_apart(self):
        g = SocialGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0)], directed=True)
        g2 = g.with_edge_updates({(1, 0): None, (2, 1): 0.5})
        assert sorted(g2.edges()) == [(0, 1, 1.0), (2, 1, 0.5)]
        assert g2.directed

    @pytest.mark.parametrize(
        "update", [{(0, 0): 1.0}, {(0, 3): 1.0}, {(0, 1): 0.0}, {(0, 1): math.inf}]
    )
    def test_with_edge_updates_checks_like_from_edges(self, update):
        g = SocialGraph.from_edges(3, TRIANGLE)
        with pytest.raises(ValueError):
            g.with_edge_updates(update)

    def test_repr_mentions_size(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        assert "n=3" in repr(g)


# -- the array CSR against the dict-loop builder it replaced ------------


def reference_from_edges(n, edges, directed=False):
    """The dict-loop ``from_edges`` the array build replaced, returning
    ``(indptr, nbrs, wts, num_edges)`` as lists: the contract the
    arrays must reproduce element for element."""
    best = {}
    for u, v, w in edges:
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        if not 0 <= u < n or not 0 <= v < n:
            raise ValueError(f"edge ({u}, {v}) out of range [0, {n})")
        if not 2.0**-480 <= w <= 2.0**480:  # the input domain's weight range
            raise ValueError(f"edge ({u}, {v}) weight must be a number in [2**-480, 2**480], got {w}")
        if not directed and u > v:
            u, v = v, u
        old = best.get((u, v))
        if old is None or w < old:
            best[(u, v)] = w
    indptr = [0] * (n + 1)
    for u, v in best:
        indptr[u + 1] += 1
        if not directed:
            indptr[v + 1] += 1
    for i in range(1, n + 1):
        indptr[i] += indptr[i - 1]
    nbrs = [0] * indptr[n]
    wts = [0.0] * indptr[n]
    cursor = indptr[:n]
    for (u, v), w in best.items():
        nbrs[cursor[u]], wts[cursor[u]] = v, w
        cursor[u] += 1
        if not directed:
            nbrs[cursor[v]], wts[cursor[v]] = u, w
            cursor[v] += 1
    return indptr, nbrs, wts, len(best)


def reference_with_edge_updates(graph, updates):
    """The dict-merge ``with_edge_updates`` the array one replaced."""
    weights = {(u, v): w for u, v, w in graph.edges()}
    for (u, v), weight in updates.items():
        key = graph.edge_key(u, v)
        if weight is None:
            weights.pop(key, None)
        else:
            weights[key] = weight
    return reference_from_edges(
        graph.n, [(u, v, w) for (u, v), w in weights.items()], graph.directed
    )


def csr(graph):
    return graph.indptr.tolist(), graph.nbrs.tolist(), graph.wts.tolist(), graph.num_edges


CSR_CI = settings(
    max_examples=80, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def id_pairs(n):
    return st.tuples(
        st.integers(min_value=0, max_value=n - 1), st.integers(min_value=0, max_value=n - 1)
    ).filter(lambda uv: uv[0] != uv[1])


@st.composite
def edge_lists(draw):
    """``(n, edges, directed)`` over a few ids and weights, so duplicate
    and reversed pairs are common."""
    n = draw(st.integers(min_value=2, max_value=12))
    weight = st.one_of(
        st.sampled_from((0.25, 0.5, 1.0, 2.0)),
        st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
    )
    edges = draw(st.lists(st.tuples(id_pairs(n), weight), max_size=4 * n))
    return n, [(u, v, w) for (u, v), w in edges], draw(st.booleans())


def test_dataset_csr_equals_the_dict_loop_build():
    n = 2000
    weighted = degree_product_weights(n, barabasi_albert_edges(n, 5, seed=7))
    want = reference_from_edges(n, weighted)
    assert csr(gowalla_like(n=n, seed=7).graph) == want
    assert csr(SocialGraph.from_edges(n, weighted)) == want


@CSR_CI
@given(case=edge_lists())
def test_from_edges_equals_the_dict_loop_build(case):
    n, edges, directed = case
    assert csr(SocialGraph.from_edges(n, edges, directed)) == reference_from_edges(
        n, edges, directed
    )


@CSR_CI
@given(case=edge_lists(), data=st.data())
def test_with_edge_updates_equals_the_dict_merge(case, data):
    n, edges, directed = case
    graph = SocialGraph.from_edges(n, edges, directed)
    updates = data.draw(
        st.dictionaries(
            id_pairs(n), st.one_of(st.none(), st.sampled_from((0.1, 0.5, 3.0))), max_size=8
        )
    )
    assert csr(graph.with_edge_updates(updates)) == reference_with_edge_updates(graph, updates)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1, 1.0), (2, 2, 1.0), (0, 5, 1.0)], "self-loop on vertex 2"),
        ([(0, 1, 1.0), (2, 4, -1.0), (1, 1, 1.0)], "edge (2, 4) out of range [0, 3)"),
        ([(0, 1, 1.0), (-1, 2, 1.0)], "edge (-1, 2) out of range [0, 3)"),
        ([(0, 1, 1.0), (2, 1, 0.0), (1, 9, 1.0)], "edge (2, 1) weight must be a number in [2**-480, 2**480], got 0.0"),
        ([(0, 1, 2.0), (1, 2, math.inf), (2, 2, 1.0)], "edge (1, 2) weight must be a number in [2**-480, 2**480], got inf"),
        ([(1, 0, math.nan), (0, 0, 1.0)], "edge (1, 0) weight must be a number in [2**-480, 2**480], got nan"),
    ],
)
def test_the_first_offending_edge_gets_the_dict_loop_message(edges, message):
    with pytest.raises(ValueError) as want:
        reference_from_edges(3, edges)
    with pytest.raises(ValueError) as got:
        SocialGraph.from_edges(3, edges)
    assert str(got.value) == str(want.value) == message


def test_accessors_return_python_scalars():
    g = SocialGraph.from_edges(3, TRIANGLE)
    assert all(
        type(u) is int and type(v) is int and type(w) is float for u, v, w in g.edges()
    )
    assert all(type(v) is int and type(w) is float for v, w in g.neighbors(1))
    assert type(g.degree(0)) is int and type(g.max_degree) is int
    assert type(g.edge_weight(1, 2)) is float


def test_the_arrays_are_read_only_and_typed():
    g = SocialGraph.from_edges(3, TRIANGLE)
    assert (g.indptr.dtype, g.nbrs.dtype, g.wts.dtype) == (np.int32, np.int32, np.float64)
    for array in (g.indptr, g.nbrs, g.wts):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1


def test_from_csr_casts_wide_ids_once_and_adopts_its_own_dtypes():
    g = SocialGraph.from_edges(3, TRIANGLE)
    wide = SocialGraph.from_csr(3, g.indptr.astype(np.int64), g.nbrs.astype(np.int64), g.wts)
    assert csr(wide) == csr(g) and wide.nbrs.dtype == np.int32
    same = SocialGraph.from_csr(3, g.indptr, g.nbrs, g.wts)
    assert same.indptr is g.indptr and same.nbrs is g.nbrs and same.wts is g.wts
