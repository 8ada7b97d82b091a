"""Tests for per-node social summaries: a node's ``(m̌, m̂)`` is the
per-landmark min / max landmark distance over the users below it."""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.aggregate import AggregateIndex
from repro.spatial.point import LocationTable

INF = math.inf


def summary_of(vectors):
    """The summary of one index node over users with these landmark
    vectors: all of them stand on one point, so one leaf and one top
    node hold them all, and both carry the same summary."""
    n = len(vectors)
    locations = LocationTable.from_columns([0.5] * n, [0.5] * n)
    landmarks = SimpleNamespace(matrix=np.array(vectors, dtype=float).T)
    index = AggregateIndex.build(locations, landmarks, s=2)
    (leaf,) = index.leaf_summaries.values()
    (top,) = index.top_summaries.values()
    assert top == leaf
    return leaf


def test_a_summary_is_the_min_max_of_its_members():
    s = summary_of([(1.0, 5.0), (3.0, 2.0)])
    assert s.m_check == [1.0, 2.0]
    assert s.m_hat == [3.0, 5.0]


def test_infinite_vectors_supported():
    s = summary_of([(INF,), (2.0,)])
    assert s.m_check == [2.0]
    assert s.m_hat == [INF]


def test_equality():
    """A summary does not depend on which member has which vector."""
    assert summary_of([(1.0,), (2.0,)]) == summary_of([(2.0,), (1.0,)])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=50), st.floats(min_value=0, max_value=50)),
        min_size=1,
        max_size=12,
    )
)
def test_property_summary_brackets_members(vectors):
    s = summary_of(vectors)
    for vec in vectors:
        for j in range(2):
            assert s.m_check[j] <= vec[j] <= s.m_hat[j]
