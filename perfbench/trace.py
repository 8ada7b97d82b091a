"""Spans recorded from outside the program.

The traced pass wraps public callables on the *live objects* of one
stack (instance attributes shadowing the bound methods), so nothing in
``src/`` knows it is being traced and an untraced stack carries no
wrapper at all.  A span is ``(name, start, end, parent, op)``; the
parent comes from a thread-local stack, ``op`` identifies the root span
(one workload op, or one ``service.query``/``query_many`` call on a
server thread).  Spans stay in per-thread lists until :meth:`spans`
merges them; self time is a span's duration minus its children's.

The first dotted component of a span name is its layer (the
``src/repro`` package doing the work): ``service.query`` -> ``service``,
``core.search.sfa`` -> ``core``.  Graph traversal runs *inside* the
searchers and cannot be wrapped on an object, so it shows up as
``core`` self time; ``graph.*`` direct probes size it instead.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

#: methods the planner may resolve ``auto`` to, plus the reference
SEARCH_METHODS = ("sfa", "spa", "tsa", "tsa-qc", "bruteforce")
_KERNEL_METHODS = (
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
)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list = []          # every thread's span list
        self._lock = threading.Lock()
        self._ops = itertools.count()
        self._patched: list = []          # (obj, attr) to delete on uninstall
        #: result-cache screen work per location update, summed from the
        #: InvalidationOutcome each screen returned
        self.screen = {"moves": 0, "invalidated": 0, "reused": 0}

    # -- recording -----------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # [spans, stack of open span indexes, current op id]
            state = self._local.state = [[], [], -1]
            with self._lock:
                self._threads.append(state[0])
        return state

    @contextmanager
    def span(self, name: str):
        state = self._state()
        spans, stack = state[0], state[1]
        if stack:
            parent = stack[-1]
        else:
            parent = -1
            state[2] = next(self._ops)
        index = len(spans)
        record = [name, time.perf_counter(), 0.0, parent, state[2]]
        spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, obj, attr: str, name: str, on_result=None) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper;
        ``on_result`` sees each return value (counts taken at the
        boundary where the work happens)."""
        original = getattr(obj, attr)
        span = self.span

        if on_result is None:

            @functools.wraps(original)
            def traced(*args, **kwargs):
                with span(name):
                    return original(*args, **kwargs)

        else:

            @functools.wraps(original)
            def traced(*args, **kwargs):
                with span(name):
                    result = original(*args, **kwargs)
                    on_result(result)
                    return result

        setattr(obj, attr, traced)
        self._patched.append((obj, attr))

    def uninstall(self) -> None:
        for obj, attr in reversed(self._patched):
            try:
                delattr(obj, attr)
            except AttributeError:
                pass
        self._patched.clear()

    # -- wiring to one stack -------------------------------------------

    def install(self, service, registry=None) -> None:
        """Wrap the layer boundaries of one engine + service (+ stream
        registry).  Only public attributes are touched."""
        engine = service.engine
        for attr in ("query", "query_many", "move_user", "update_edge"):
            self.wrap(service, attr, f"service.{attr}")
        if service.cache is not None:
            # the result-cache screen runs inside engine.move_user (as
            # a location listener); its own span keeps that work on the
            # service layer's account
            self.wrap(
                service.cache, "invalidate_location_update", "service.cache_screen",
                on_result=self._tally_screen,
            )
            self.wrap(service.cache, "invalidate_edge_update", "service.cache_screen")
        self.wrap(engine, "query", "core.engine_query")
        self.wrap(engine, "move_user", "core.move_user")
        planner = engine.planner
        self.wrap(planner, "resolve", "plan.resolve")
        self.wrap(planner, "observe", "plan.observe")
        for method in SEARCH_METHODS:
            self.wrap(engine.searcher(method), "search", f"core.search.{method}")
        social = engine.social_cache
        if social is not None:
            for attr in ("acquire", "checkin", "store_full", "peek_full"):
                self.wrap(social, attr, f"social.{attr}")
        for attr in _KERNEL_METHODS:
            self.wrap(engine.kernels, attr, f"backend.{attr}")
        if registry is not None:
            self.wrap(registry, "flush", "stream.flush")

    def _tally_screen(self, outcome) -> None:
        self.screen["moves"] += 1
        self.screen["invalidated"] += int(outcome)
        self.screen["reused"] += outcome.reused

    # -- results -------------------------------------------------------

    def spans(self) -> list:
        """All finished spans as dicts, with ``self`` time filled in.
        ``id``/``parent`` are unique across threads."""
        out = []
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            base = len(out)
            child_time = [0.0] * len(spans)
            for name, start, end, parent, op in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for i, (name, start, end, parent, op) in enumerate(spans):
                out.append(
                    {
                        "id": base + i,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": base + parent if parent >= 0 else -1,
                        "op": op,
                        "self": (end - start) - child_time[i],
                    }
                )
        return out

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans(), handle)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTable:
    """Aggregates over a span list: per-name durations and per-layer
    self time, every duration multiplied by ``scale`` (1 / the host's
    time dilation, to read clock-time spans at reference speed)."""

    def __init__(self, spans: list, scale: float = 1.0) -> None:
        self.spans = spans
        self.scale = scale
        self.durations: dict = {}
        self.self_by_layer: dict = {}
        self.count_by_layer: dict = {}
        for span in spans:
            duration = (span["end"] - span["start"]) * scale
            self.durations.setdefault(span["name"], []).append(duration)
            layer = layer_of(span["name"])
            self.self_by_layer[layer] = self.self_by_layer.get(layer, 0.0) + span["self"] * scale
            self.count_by_layer[layer] = self.count_by_layer.get(layer, 0) + 1

    def mean(self, name: str) -> float:
        values = self.durations.get(name)
        return sum(values) / len(values) if values else 0.0

    def self_of(self, *names: str) -> float:
        wanted = set(names)
        return self.scale * sum(span["self"] for span in self.spans if span["name"] in wanted)

    def roots(self) -> list:
        return [span for span in self.spans if span["parent"] < 0]
