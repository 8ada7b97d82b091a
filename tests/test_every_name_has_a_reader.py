"""Every counter and every public name has a reader.

A counter nobody reads and a function nobody calls cost lines and say
nothing, so each must show a reader, or it is deleted.  Two checks,
each driven by a table in this file:

- **counters** — every field of the seven stats dataclasses, every key
  a snapshot derives from them (named after the class of its ``/stats``
  section) and every ``stats.extra[...]`` key written under ``src/`` has
  a row in :data:`COUNTERS`, and the reader the row names is there: a
  text of ``BENCH_paper_smoke.json`` (a table's key or a claim), a
  string ``perfbench/`` reads, a test that asserts the value, or a
  README or example line;
- **public names** — every public function, class and method under
  ``src/repro`` has a caller in ``src/`` code (docstrings, comments and
  ``__init__`` re-exports do not count; a decorator that registers a
  function is its caller), in ``perfbench/`` (code, or a string it
  wraps by name), in ``examples/`` or in a README / docs doctest, or a
  row in :data:`NO_CALLER` giving one of the reasons in :data:`KEPT`
  and the test file that reads it.

A new counter or public name therefore arrives with its reader, and the
failure names what lacks one.
"""

from __future__ import annotations

import ast
import doctest
import functools
import re
from dataclasses import fields
from pathlib import Path

from repro import GeoSocialEngine, PlannerStats, QueryService, SearchStats, ServiceStats
from repro.datasets.synthetic import build_dataset
from repro.server import ServerStats, SSRQServer
from repro.server.protocol import stats_payload
from repro.service import CacheStats
from repro.social import SocialCacheStats
from repro.stream import StreamStats, SubscriptionRegistry

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: each stats class and the ``/stats`` section holding its snapshot
SECTIONS = {
    ServiceStats: ("service",),
    CacheStats: ("cache",),
    SocialCacheStats: ("cache", "social"),
    PlannerStats: ("planner",),
    StreamStats: ("stream",),
    ServerStats: ("server",),
}

_PERF = "perfbench"
_RECORD = "BENCH_paper_smoke.json: "
_POP = _RECORD + "pop ratio"

#: counter -> its reader: ``"BENCH_paper_smoke.json: <text>"``,
#: ``"perfbench"`` (it reads the counter's name), a test
#: ``"<file under tests/>::[<class>::]<test>"``, or a README / example file
COUNTERS = {
    "SearchStats.pops_social": _POP,
    "SearchStats.pops_spatial": _POP,
    "SearchStats.pops_index": _POP,
    "SearchStats.cells_opened":
        "test_plan_planner.py::TestSearcherContract::test_execution_stats_populated",
    "SearchStats.candidates_scored": _PERF,
    "SearchStats.evaluations": _RECORD + "AIS evaluates no more than AIS-MINUS at every k",
    "SearchStats.cache_hits":
        _RECORD + "AIS-BID answers no distance from a cache, while AIS-MINUS and AIS do",
    "SearchStats.reinsertions":
        _RECORD + "AIS re-inserts at every k, while AIS-MINUS and AIS-BID re-insert nothing",
    "SearchStats.elapsed":
        "test_plan_planner.py::TestSearcherContract::test_execution_stats_populated",
    "SearchStats.extra[social_column_hits]":
        "test_socials_reuse.py::test_column_step_miss_then_fresh_restart_then_full_hit",
    "SearchStats.extra[bounded_passes]":
        "test_sssp_kernel.py::test_a_radius_column_is_never_cached_and_an_unbounded_one_is",
    "SearchStats.extra[bounded_radius]":
        "test_sssp_kernel.py::test_a_radius_column_is_never_cached_and_an_unbounded_one_is",
    "SearchStats.extra[tree_dirty]":
        "test_input_domain.py::test_alpha_0_reads_each_coordinate_bound_through_the_k_d_tree",
    "SearchStats.extra[tree_rebuilt]":
        "test_input_domain.py::test_alpha_0_reads_each_coordinate_bound_through_the_k_d_tree",
    "SearchStats.extra[fallback]": _RECORD + "fallback rate",
    "ServiceStats.batches": "test_service_stats.py::test_batch_dedup_counted",
    "ServiceStats.cache_hits": _PERF,
    "ServiceStats.deduplicated": _PERF,
    "ServiceStats.invalidated_entries":
        "test_service_stats.py::test_invalidation_counters_move_on_update",
    "ServiceStats.reused_entries":
        "test_service_stats.py::test_invalidation_counters_move_on_update",
    "ServiceStats.full_invalidations": _PERF,
    "ServiceStats.query_seconds": "test_service_stats.py::test_record_execution_accumulates",
    "ServiceStats.max_query_seconds": "test_service_stats.py::test_record_execution_accumulates",
    "ServiceStats.per_method": _PERF,
    "ServiceStats.total_pops": "test_service.py::test_service_stats_snapshot_shape",
    "ServiceStats.requests": "test_service_stats.py::test_cache_info_contract",
    "ServiceStats.cache_misses": _PERF,
    "ServiceStats.executed": _PERF,
    "ServiceStats.hit_rate": "test_service_stats.py::test_service_stats_hit_rate",
    "ServiceStats.avg_query_seconds": "test_service_stats.py::test_record_execution_accumulates",
    "CacheStats.insertions": "test_service_stats.py::test_cache_info_contract",
    "CacheStats.evictions": _PERF,
    "CacheStats.size": "test_service_stats.py::test_cache_info_contract",
    "CacheStats.capacity": "test_service_stats.py::test_cache_info_contract",
    "SocialCacheStats.hits": _PERF,
    "SocialCacheStats.misses": _PERF,
    "SocialCacheStats.promotions":
        "test_socials_reuse.py::TestSocialColumnCache::test_exhausted_checkin_promotes_to_full_column",
    "SocialCacheStats.evictions": _PERF,
    "SocialCacheStats.invalidations":
        "test_socials_reuse.py::test_a_first_location_lays_the_cache_out_afresh",
    "SocialCacheStats.entries":
        "test_socials_reuse.py::test_column_step_miss_then_fresh_restart_then_full_hit",
    "SocialCacheStats.bytes": _PERF,
    "SocialCacheStats.max_bytes":
        "test_cli.py::test_serve_keeps_its_column_budget_across_rebuild_and_restore",
    "PlannerStats.per_method": "test_service_stats.py::test_planner_stats_snapshot_arithmetic",
    "PlannerStats.auto_resolutions":
        "test_service_stats.py::test_planner_stats_accumulate_through_auto_queries",
    "PlannerStats.static_routes":
        "test_plan_planner.py::TestPlanner::test_static_endpoint_resolutions",
    "StreamStats.subscribed": "test_service_model.py::test_subscribe_validates_before_registering",
    "StreamStats.location_updates":
        "test_service_model.py::test_a_registry_follows_only_an_open_service",
    "StreamStats.noops": _PERF,
    "StreamStats.repair_marks": _PERF,
    "StreamStats.recompute_marks": _PERF,
    "StreamStats.repairs_applied":
        "test_stream_concurrency.py::test_stream_counters_are_consistent_after_concurrent_churn",
    "StreamStats.recomputes_applied":
        "test_stream_concurrency.py::test_stream_counters_are_consistent_after_concurrent_churn",
    "StreamStats.entrant_evaluations":
        "test_socials_reuse.py::test_a_repair_reads_an_entrant_at_its_layout_position",
    "StreamStats.engine_swaps":
        "test_service_model.py::test_two_registries_each_hear_one_swap_per_rebuild",
    "StreamStats.suspended":
        "test_service_model.py::test_a_suspended_subscription_resumes_when_its_user_returns",
    "StreamStats.maintained_fraction": "examples/stream_quickstart.py",
    "ServerStats.connections":
        "test_server_backpressure.py::test_malformed_requests_get_typed_400s",
    "ServerStats.requests": "examples/server_quickstart.py",
    "ServerStats.served_inline": "test_server_backpressure.py::test_no_loop_callback_runs_a_query",
    "ServerStats.admitted":
        "test_server_backpressure.py::test_overflow_sheds_and_admitted_complete",
    "ServerStats.shed": _PERF,
    "ServerStats.completed":
        "test_server_backpressure.py::test_overflow_sheds_and_admitted_complete",
    "ServerStats.client_errors":
        "test_server_backpressure.py::test_malformed_requests_get_typed_400s",
    "ServerStats.server_errors":
        "test_server_backpressure.py::test_malformed_requests_get_typed_400s",
    "ServerStats.deadline_expired": _PERF,
    "ServerStats.deadline_timeouts":
        "test_server_backpressure.py::test_deadline_fires_mid_execution",
    "ServerStats.drained_rejections":
        "test_server_backpressure.py::test_a_post_during_drain_is_refused_and_counted",
    "ServerStats.coalesced_batches": _PERF,
    "ServerStats.coalesced_requests": _PERF,
    "ServerStats.streams_opened":
        "test_server_conformance.py::test_subscription_snapshot_matches_query",
    "ServerStats.streams_closed":
        "test_server_conformance.py::test_subscription_snapshot_matches_query",
    "ServerStats.events_sent":
        "test_server_conformance.py::test_subscription_snapshot_matches_query",
    "ServerStats.updates_notified":
        "test_server_conformance.py::test_d_a_recorded_edge_update_wakes_no_stream",
    "ServerStats.queue_depth": "test_cli.py::test_serve_defaults_are_the_server_config_s",
    "ServerStats.queued": "test_server_backpressure.py::test_workers_pop_every_admitted_job_once",
    "ServerStats.in_flight":
        "test_server_backpressure.py::test_overflow_sheds_and_admitted_complete",
    "ServerStats.active_streams":
        "test_server_conformance.py::test_subscription_snapshot_matches_query",
    "ServerStats.draining":
        "test_server_backpressure.py::test_a_post_during_drain_is_refused_and_counted",
}

#: the reasons a public name with no caller is kept: reference
#: implementations and crash-test hooks are safety code, the tests read
#: the system through its probes, the loaders are how real data enters,
#: and a protocol states the contract the tests hold each searcher to
KEPT = ("reference", "crash-test hook", "probe", "real-data loader", "protocol")

#: public name with no caller -> (one of :data:`KEPT`, the file under
#: ``tests/`` that reads it)
NO_CALLER = {
    "repro.graph.traversal.dijkstra_distances": ("reference", "test_graph_landmarks.py"),
    "repro.graph.bidirectional.bidirectional_dijkstra":
        ("reference", "test_graph_bidirectional.py"),
    "repro.graph.astar.alt_distance": ("reference", "test_graph_astar.py"),
    "repro.core.searcher.Searcher": ("protocol", "test_plan_planner.py"),
    "repro.graph.traversal.hop_counts": ("probe", "test_datasets_forest_fire.py"),
    "repro.store.format.fault_injection": ("crash-test hook", "test_store_crash.py"),
    "repro.store.manager.SnapshotManager.prune": ("crash-test hook", "test_store_crash.py"),
    "repro.spatial.point.LocationTable.from_dict": ("probe", "model.py"),
    "repro.graph.socialgraph.SocialGraph.has_edge": ("probe", "test_service_model.py"),
    "repro.service.cache.ResultCache.peek": ("probe", "test_service_model.py"),
    "repro.social.cache.SocialColumnCache.contains_full": ("probe", "test_service_model.py"),
    "repro.datasets.generators.erdos_renyi_edges": ("probe", "conftest.py"),
    "repro.datasets.loaders.load_edge_list": ("real-data loader", "test_datasets_loaders.py"),
    "repro.datasets.loaders.save_edge_list": ("real-data loader", "test_datasets_loaders.py"),
    "repro.datasets.loaders.load_checkins": ("real-data loader", "test_datasets_loaders.py"),
    "repro.datasets.loaders.save_checkins": ("real-data loader", "test_datasets_loaders.py"),
}


# -- counters -------------------------------------------------------------


@functools.cache
def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _stats_document() -> dict:
    """``/stats`` of a small stack with every section present."""
    engine = GeoSocialEngine.from_dataset(build_dataset("reader", n=60, avg_degree=4.0, seed=3))
    with QueryService(engine) as service:
        registry = SubscriptionRegistry(service)
        try:
            return stats_payload(service, server=SSRQServer(service), registry=registry)
        finally:
            registry.close()


def _counters() -> set[str]:
    """Every counter: the stats classes' fields, the derived keys of
    their sections and the ``stats.extra`` keys ``src/`` writes."""
    names = {f"SearchStats.{f.name}" for f in fields(SearchStats) if f.name != "extra"}
    for path in SRC.rglob("*.py"):
        for key in re.findall(r"\bextra\[\"(\w+)\"\]\s*=", _read(path)):
            names.add(f"SearchStats.extra[{key}]")
    document = _stats_document()
    for cls, path in SECTIONS.items():
        section = document
        for part in path:
            section = section[part]
        keys = {f.name for f in fields(cls)} | {
            key for key in section if (*path, key) not in SECTIONS.values()
        }
        names |= {f"{cls.__name__}.{key}" for key in keys}
    return names


def _test_source(reader: str) -> "str | None":
    """The source of the test ``<file>::[<Class>::]<test>``."""
    file, *qualname = reader.split("::")
    source = _read(ROOT / "tests" / file)
    body = ast.parse(source).body
    node = None
    for name in qualname:
        node = next((n for n in body if getattr(n, "name", None) == name), None)
        if node is None:
            return None
        body = node.body
    return ast.get_source_segment(source, node)


def _unread(counter: str, reader: str) -> "str | None":
    """Why ``reader`` does not read ``counter`` (``None``: it does)."""
    key = re.search(r"(\w+)\]?$", counter).group(1)
    if reader.startswith(_RECORD):
        text = reader[len(_RECORD):]
        if text not in _read(ROOT / "BENCH_paper_smoke.json"):
            return f"the record holds no {text!r}"
    elif reader == _PERF:
        perfbench = (_read(path) for path in sorted((ROOT / _PERF).glob("*.py")))
        if not any(re.search(rf"[\"']{key}[\"']|\.{key}\b", text) for text in perfbench):
            return f"perfbench reads no {key!r}"
    elif "::" in reader:
        source = _test_source(reader)
        if source is None:
            return "no such test"
        if not (re.search(rf"\b{key}\b", source) and "assert" in source):
            return f"the test asserts no {key!r}"
    elif not re.search(rf"\b{key}\b", _read(ROOT / reader)):
        return f"{reader} has no line naming {key!r}"
    return None


def test_every_counter_has_a_reader_row():
    """A counter added without a row fails here, by name; so does a row
    whose counter is gone."""
    counters = _counters()
    unlisted, gone = sorted(counters - set(COUNTERS)), sorted(set(COUNTERS) - counters)
    assert not unlisted, f"counters with no reader row: {unlisted}"
    assert not gone, f"rows for counters that are gone: {gone}"


def test_every_counter_reader_reads_it():
    problems = [
        f"{counter} <- {reader}: {why}"
        for counter, reader in COUNTERS.items()
        if (why := _unread(counter, reader)) is not None
    ]
    assert not problems, "\n".join(["readers that do not read their counter:", *problems])


# -- public names ---------------------------------------------------------

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: the decorators that register a function with the CLI, which calls it
_REGISTERING = {"command", "group"}


def _public_names() -> "dict[str, str]":
    """``qualified name -> name`` of every public module-level function
    and class under ``src/repro`` and every public method of those
    classes, less those a registering decorator calls."""
    names = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for node in ast.parse(_read(path)).body:
            if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
                continue
            members = [node] + [
                sub for sub in getattr(node, "body", [])
                if isinstance(node, ast.ClassDef) and isinstance(sub, _FUNCTIONS)
                and not sub.name.startswith("_")
            ]
            for member in members:
                decorators = {ast.unparse(d).split("(")[0] for d in member.decorator_list}
                if {d.rsplit(".", 1)[-1] for d in decorators} & _REGISTERING:
                    continue  # the CLI calls it
                qualified = module + ("" if member is node else f".{node.name}") + f".{member.name}"
                names[qualified] = member.name
    return names


def _references(tree: ast.AST, strings: bool = False) -> "set[str]":
    """The names ``tree`` reads (a ``Name`` or an attribute; with
    ``strings``, also every identifier-like string constant)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
    return found


def _callers() -> "set[str]":
    """Every name read by ``src/`` code (``__init__`` re-exports left
    out), ``perfbench/``, ``examples/`` and the README and docs
    doctests."""
    found = set()
    for path in SRC.rglob("*.py"):
        if path.name != "__init__.py":
            found |= _references(ast.parse(_read(path)))
    for path in (ROOT / _PERF).glob("*.py"):
        found |= _references(ast.parse(_read(path)), strings=True)
    for path in (ROOT / "examples").glob("*.py"):
        found |= _references(ast.parse(_read(path)))
    parser = doctest.DocTestParser()
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        examples = parser.get_examples(_read(path))
        found |= _references(ast.parse("\n".join(example.source for example in examples)))
    return found


def test_every_public_name_has_a_caller_or_a_kept_reason():
    """A public function, class or method that nothing calls fails here,
    by name, unless :data:`NO_CALLER` keeps it; a row for a name that is
    gone or now has a caller fails too."""
    names, callers = _public_names(), _callers()
    uncalled = {qualified for qualified, name in names.items() if name not in callers}
    unkept, stale = sorted(uncalled - set(NO_CALLER)), sorted(set(NO_CALLER) - uncalled)
    assert not unkept, f"public names with no caller: {unkept}"
    assert not stale, f"rows for names that are gone or called: {stale}"


def test_every_kept_name_has_a_kept_reason_and_its_reader():
    problems = [
        f"{qualified}: {reason!r} from {reader}"
        for qualified, (reason, reader) in NO_CALLER.items()
        if reason not in KEPT
        or not re.search(rf"\b{qualified.rsplit('.', 1)[1]}\b", _read(ROOT / "tests" / reader))
    ]
    assert not problems, f"rows without a kept reason or a reader: {problems}"
