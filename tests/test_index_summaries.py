"""Tests for per-cell social summaries."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.summaries import SocialSummary

INF = math.inf


def test_empty_summary():
    s = SocialSummary(2)
    assert s.empty
    assert s.m_check == [INF, INF]


def test_of_vectors_min_max():
    s = SocialSummary.of_vectors(2, [(1.0, 5.0), (3.0, 2.0)])
    assert s.m_check == [1.0, 2.0]
    assert s.m_hat == [3.0, 5.0]
    assert not s.empty


def test_widen_reports_changes():
    s = SocialSummary.of_vectors(1, [(2.0,)])
    assert s.widen((5.0,)) is True
    assert s.widen((3.0,)) is False  # inside [2, 5]
    assert s.m_hat == [5.0]


def test_infinite_vectors_supported():
    s = SocialSummary.of_vectors(1, [(INF,), (2.0,)])
    assert s.m_check == [2.0]
    assert s.m_hat == [INF]


def test_equality():
    a = SocialSummary.of_vectors(1, [(1.0,), (2.0,)])
    b = SocialSummary.of_vectors(1, [(2.0,), (1.0,)])
    assert a == b


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=50), st.floats(min_value=0, max_value=50)),
        min_size=1,
        max_size=12,
    )
)
def test_property_summary_brackets_members(vectors):
    s = SocialSummary.of_vectors(2, vectors)
    for vec in vectors:
        for j in range(2):
            assert s.m_check[j] <= vec[j] <= s.m_hat[j]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.floats(min_value=0, max_value=50)), min_size=2, max_size=10),
)
def test_property_incremental_equals_batch(vectors):
    batch = SocialSummary.of_vectors(1, vectors)
    incremental = SocialSummary(1)
    for vec in vectors:
        incremental.widen(vec)
    assert incremental == batch
