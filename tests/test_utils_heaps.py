"""Unit tests for the counting min-heap."""

import pytest

from repro.utils.heaps import MinHeap


def _heap(*items):
    heap = MinHeap()
    for item in items:
        heap.push(item)
    return heap


def test_push_pop_orders_by_key():
    heap = MinHeap()
    for key in [5.0, 1.0, 3.0, 2.0, 4.0]:
        heap.push((key, int(key)))
    assert [heap.pop()[0] for _ in range(5)] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_pop_counter_counts_every_pop():
    heap = _heap((1.0, "a"), (2.0, "b"))
    assert heap.pops == 0
    heap.pop()
    heap.pop()
    assert heap.pops == 2


def test_peek_does_not_count_or_remove():
    heap = _heap((2.0, "b"), (1.0, "a"))
    assert heap.peek_key() == 1.0
    assert heap.pops == 0
    assert len(heap) == 2


def test_tuple_tie_breaking_is_deterministic():
    heap = MinHeap()
    heap.push((1.0, 2, "second"))
    heap.push((1.0, 1, "first"))
    assert heap.pop()[2] == "first"
    assert heap.pop()[2] == "second"


def test_bool_and_len():
    heap = MinHeap()
    assert not heap
    assert len(heap) == 0
    heap.push((1.0,))
    assert heap
    assert len(heap) == 1


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        MinHeap().pop()


def test_clear_empties_heap_but_keeps_pop_count():
    heap = _heap((1.0,), (2.0,))
    heap.pop()
    heap.clear()
    assert not heap
    assert heap.pops == 1
