"""``repro.utils.concurrency`` — the readers-writer lock guarding
every engine's indexes.  Focus: exclusion semantics and release on
exceptions."""

from __future__ import annotations

import threading
import time

import pytest

from repro.utils.concurrency import ReadWriteLock


def run_in_thread(fn):
    t = threading.Thread(target=fn, daemon=True)
    t.start()
    return t


class TestReadWriteLock:
    def test_many_readers_hold_concurrently(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(4, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # deadlocks (and times out) unless all 4 overlap

        threads = [run_in_thread(reader) for _ in range(4)]
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()

    def test_writer_excludes_readers_and_writers(self):
        lock = ReadWriteLock()
        order = []
        writing = threading.Event()

        def writer():
            with lock.write_locked():
                writing.set()
                time.sleep(0.05)
                order.append("writer-done")

        def reader():
            writing.wait(timeout=5)
            with lock.read_locked():
                order.append("reader")

        w = run_in_thread(writer)
        r = run_in_thread(reader)
        w.join(timeout=5)
        r.join(timeout=5)
        assert order == ["writer-done", "reader"]

    def test_waiting_writer_blocks_new_readers(self):
        """Writer preference: once a writer queues behind the active
        reader, later readers wait behind the writer."""
        lock = ReadWriteLock()
        order = []
        reader_in = threading.Event()
        writer_waiting = threading.Event()

        def first_reader():
            with lock.read_locked():
                reader_in.set()
                writer_waiting.wait(timeout=5)
                time.sleep(0.05)
                order.append("reader-1")

        def writer():
            reader_in.wait(timeout=5)
            writer_waiting.set()  # just before blocking on acquire_write
            with lock.write_locked():
                order.append("writer")

        def second_reader():
            writer_waiting.wait(timeout=5)
            time.sleep(0.01)  # let the writer reach its wait first
            with lock.read_locked():
                order.append("reader-2")

        threads = [run_in_thread(f) for f in (first_reader, writer, second_reader)]
        for t in threads:
            t.join(timeout=5)
        assert order == ["reader-1", "writer", "reader-2"]

    def test_read_lock_released_on_exception(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            with lock.read_locked():
                raise RuntimeError("boom")
        with lock.write_locked():  # would deadlock if the read leaked
            pass

    def test_write_lock_released_on_exception(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            with lock.write_locked():
                raise RuntimeError("boom")
        with lock.read_locked():
            pass
