"""Every counter and every public name has a reader, and every setting
a setter.

A counter nobody reads, a function nobody calls and a knob nobody turns
cost lines and say nothing, so each must show a reader (or a setter), or
it is deleted.  Three checks, each driven by a table in this file:

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
  and the test file that reads it;
- **settings** — every defaulted parameter of a public function, method
  or constructor under ``src/repro``, and every ``ServerConfig`` field,
  has a setter: a call in ``src/`` code or ``perfbench/*.py`` passing a
  value other than the default (tests, examples and docs do not count).
  A value forwarded from the caller's own parameter counts only if that
  parameter has a setter in turn, through private helpers too; a
  ``cls(...)`` / ``type(self)(...)`` call, a ``*args`` or a ``**kwargs``
  sets every parameter it can reach, and so does the command line for a
  CLI command's parameters and an unknown caller for a private function
  handed on as a value.  A setting no caller sets has a row in
  :data:`SETTINGS` giving one of the reasons in :data:`SETTING_KEPT` and
  the file that sets or reads it, or it becomes a constant.

A new counter, public name or setting therefore arrives with its reader
or setter, and the failure names what lacks one.
"""

from __future__ import annotations

import ast
import doctest
import functools
import re
from dataclasses import dataclass, fields
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


# -- settings -------------------------------------------------------------

#: the reasons a setting no caller sets is kept: perfbench passes or
#: wraps it by name; a deployment tunes it; a reference, probe or
#: crash-test hook keeps the knob its test turns; a data builder is
#: sized and seeded by its caller; the client mirrors a wire field; a
#: field of the ``QueryRequest`` a batch or stream also takes whole; the
#: paper's model needs it; or it is an entry point's argv
SETTING_KEPT = (
    "perfbench pin", "deployment setting", "reference", "probe", "crash-test hook",
    "data builder", "wire mirror", "the QueryRequest overload", "paper capability",
    "entry point",
)

#: ``<qualified name>(<parameter>)`` with no setter -> (one of
#: :data:`SETTING_KEPT`, the repo file that sets or reads it)
SETTINGS = {
    "repro.plan.planner.Planner(seed)": ("perfbench pin", "perfbench/probes.py"),
    "repro.backend.numpy_backend.NumpyKernels.blend_topk_multi(exclude)":
        ("perfbench pin", "tests/scalar_kernels.py"),
    "repro.backend.numpy_backend.NumpyKernels.nanbbox(ids)":
        ("perfbench pin", "tests/test_backend_kernels.py"),
    "repro.store.snapshot.load_engine(mmap)": ("perfbench pin", "perfbench/harness.py"),
    "repro.store.format.read_column(mmap)": ("perfbench pin", "src/repro/store/snapshot.py"),
    "repro.server.client.ServerClient(timeout)":
        ("deployment setting", "src/repro/server/client.py"),
    "repro.server.client.ServerClient.tail(timeout)":
        ("deployment setting", "src/repro/server/client.py"),
    "repro.server.app.ServerConfig(heartbeat_s)":
        ("deployment setting", "tests/test_server_conformance.py"),
    "repro.graph.traversal.dijkstra_distances(cutoff)":
        ("reference", "tests/test_graph_traversal.py"),
    "repro.graph.astar.alt_distance(landmarks)": ("reference", "tests/test_graph_astar.py"),
    "repro.datasets.generators.erdos_renyi_edges(seed)": ("probe", "tests/conftest.py"),
    "repro.store.manager.SnapshotManager.prune(keep)":
        ("crash-test hook", "tests/test_store_crash.py"),
    "repro.datasets.synthetic.foursquare_like(n)": ("data builder", "src/repro/cli/commands.py"),
    "repro.datasets.synthetic.foursquare_like(seed)": ("data builder", "src/repro/cli/commands.py"),
    "repro.datasets.synthetic.twitter_like(n)": ("data builder", "src/repro/cli/commands.py"),
    "repro.datasets.synthetic.twitter_like(seed)": ("data builder", "src/repro/cli/commands.py"),
    "repro.datasets.synthetic.correlated_dataset(seed)":
        ("data builder", "tests/test_datasets_synthetic.py"),
    "repro.bench.workloads.zipf_arrivals(seed)": ("data builder", "examples/service_quickstart.py"),
    "repro.server.client.ServerClient.query(deadline_ms)":
        ("wire mirror", "tests/test_server_backpressure.py"),
    "repro.server.client.ServerClient.query_batch(deadline_ms)":
        ("wire mirror", "tests/test_server_backpressure.py"),
    "repro.server.client.ServerClient.metrics(format)": ("wire mirror", "tests/test_cli.py"),
    "repro.server.client.ServerClient.tail(heartbeats)":
        ("wire mirror", "tests/test_server_conformance.py"),
    "repro.service.service.QueryService.query_many(k)":
        ("the QueryRequest overload", "tests/test_service.py"),
    "repro.service.service.QueryService.query_many(alpha)":
        ("the QueryRequest overload", "tests/test_service.py"),
    "repro.service.service.QueryService.query_many(method)":
        ("the QueryRequest overload", "tests/test_service.py"),
    "repro.server.client.ServerClient.tail(k)":
        ("the QueryRequest overload", "tests/test_server_conformance.py"),
    "repro.server.client.ServerClient.tail(alpha)":
        ("the QueryRequest overload", "tests/test_server_conformance.py"),
    "repro.server.client.ServerClient.tail(method)":
        ("the QueryRequest overload", "tests/test_server_conformance.py"),
    "repro.graph.socialgraph.SocialGraph.from_edges(directed)":
        ("paper capability", "tests/test_graph_directed.py"),
    "repro.bench.__main__.main(argv)": ("entry point", "src/repro/bench/__main__.py"),
}

#: the dataclasses whose fields are settings (every other dataclass is
#: a record, built whole)
_CONFIGS = {"repro.server.app.ServerConfig"}


@dataclass
class _Signature:
    """One function, method or constructor, as a call binds it."""

    qualified: str
    #: what a call names: the function, the method or the class
    name: str
    params: "list[str]"
    #: how many of ``params`` a positional argument can bind
    positional: int
    #: the leading ``params`` the receiver binds (``self``, ``cls``)
    skip: int
    defaults: "dict[str, ast.expr]"
    kwarg: "str | None"
    module: str
    #: the class a method belongs to
    owner: "str | None"
    #: public, under ``src/repro``: its defaulted parameters are settings
    checked: bool
    #: a CLI command: the command line sets every parameter
    registered: bool = False


@dataclass
class _Program:
    """Every signature and call of a set of modules."""

    signatures: "list[_Signature]"
    #: ``(call, its enclosing signatures innermost last, its module)``
    calls: list
    #: every name read other than as a callee, and every identifier string
    handed_on: "set[str]"


def _scan(modules: "dict[str, str]") -> _Program:
    """``module name -> source`` as a :class:`_Program`."""
    program, callees = _Program([], [], set()), set()

    def function(node, module, prefix, scope, owner, public):
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        defaults.update(
            {a.arg: d for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
        )
        decorators = {ast.unparse(d).split("(")[0].rsplit(".", 1)[-1] for d in node.decorator_list}
        name, qualified = node.name, f"{prefix}.{node.name}"
        if owner is not None and name == "__init__":
            name, qualified = owner, prefix
        return _Signature(
            qualified, name, positional + [a.arg for a in args.kwonlyargs], len(positional),
            int(owner is not None and "staticmethod" not in decorators), defaults,
            args.kwarg.arg if args.kwarg else None, module, owner,
            checked=public and not scope and (name == owner or not node.name.startswith("_")),
            registered=bool(decorators & _REGISTERING),
        )

    def dataclass_(node, module, qualified):
        rows = [
            s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
        ]
        params = [row.target.id for row in rows]
        defaults = {row.target.id: row.value for row in rows if row.value is not None}
        return _Signature(qualified, node.name, params, len(params), 0, defaults, None, module,
                          None, checked=qualified in _CONFIGS)

    def visit(node, module, prefix, scope, owner, public):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualified = f"{prefix}.{child.name}"
                if any(ast.unparse(d).split("(")[0] == "dataclass" for d in child.decorator_list):
                    program.signatures.append(dataclass_(child, module, qualified))
                visit(child, module, qualified, scope, child.name,
                      public and not scope and not child.name.startswith("_"))
            elif isinstance(child, _FUNCTIONS):
                signature = function(child, module, prefix, scope, owner, public)
                program.signatures.append(signature)
                visit(child, module, signature.qualified, (*scope, signature), None, False)
            else:
                if isinstance(child, ast.Call):
                    program.calls.append((child, scope, module))
                    callees.add(id(child.func))
                elif isinstance(child, ast.Name) and id(child) not in callees:
                    program.handed_on.add(child.id)
                elif isinstance(child, ast.Attribute) and id(child) not in callees:
                    program.handed_on.add(child.attr)
                elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                    program.handed_on.add(child.value)
                visit(child, module, prefix, scope, None, public)

    for module, source in modules.items():
        visit(ast.parse(source), module, module, (), None, module.startswith("repro."))
    return program


class _Setters:
    """Which parameters of a :class:`_Program` some call sets."""

    def __init__(self, program: _Program) -> None:
        self.program = program
        self._module_level = {s.qualified for s in program.signatures}
        self.by_name: "dict[str, list]" = {}
        for call, scope, module in program.calls:
            self.by_name.setdefault(self._callee(call, scope, module), []).append((call, scope))
        self._busy: set = set()

    def _callee(self, call, scope, module) -> "str | None":
        """The name ``call`` calls: a bare name defined in the calling
        module is that module's; ``cls`` / ``type(self)`` is the
        enclosing class, reaching every parameter (``"*<class>"``)."""
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr
        owner = next((s.owner for s in reversed(scope) if s.owner is not None), None)
        if owner is not None and ast.unparse(func) in ("cls", "type(self)"):
            return "*" + owner
        if isinstance(func, ast.Name):
            local = f"{module}.{func.id}" in self._module_level
            return f"{module}:{func.id}" if local else func.id
        return None

    def _calls(self, signature: _Signature):
        if signature.qualified == f"{signature.module}.{signature.name}":
            yield from self.by_name.get(f"{signature.module}:{signature.name}", [])
        yield from self.by_name.get(signature.name, [])

    def reached(self, signature: _Signature) -> bool:
        """Every parameter is set: a CLI command, a private function
        handed on as a value, or a class built by ``cls(...)``."""
        return (
            signature.registered
            or (signature.name.startswith("_") and signature.name in self.program.handed_on)
            or f"*{signature.name}" in self.by_name
        )

    def is_set(self, signature: _Signature, param: str, default: "ast.expr | None") -> bool:
        """Whether a call passes ``param`` (a named parameter, or a key
        of the ``**kwargs``) a value other than ``default`` (``None``: a
        required parameter, any value)."""
        key = (signature.qualified, param, default and ast.dump(default))
        if self.reached(signature):
            return True
        if key in self._busy:
            return False
        self._busy.add(key)
        try:
            positional = signature.params[:signature.positional]
            index = positional.index(param) if param in positional else None
            for call, scope in self._calls(signature):
                value = None
                for i, arg in enumerate(call.args, start=signature.skip):
                    if isinstance(arg, ast.Starred):
                        if index is not None and index >= i:
                            return True
                        break
                    if i == index:
                        value = arg
                for keyword in call.keywords:
                    if keyword.arg == param:
                        value = keyword.value
                    elif keyword.arg is None:
                        # ``**x`` reaches ``param`` unless it forwards
                        # the caller's own ``**kwargs``, whose callers
                        # must then pass it
                        owner = self._owner(keyword.value, scope)
                        if (owner is None or keyword.value.id != owner.kwarg
                                or self.is_set(owner, param, default)):
                            return True
                if value is not None and self._sets(value, scope, default):
                    return True
            return False
        finally:
            self._busy.discard(key)

    def _owner(self, value, scope) -> "_Signature | None":
        """The innermost enclosing signature ``value`` is a parameter of."""
        if isinstance(value, ast.Name):
            for signature in reversed(scope):
                if value.id in signature.params or value.id == signature.kwarg:
                    return signature
        return None

    def _sets(self, value, scope, default) -> bool:
        """Whether passing ``value`` where ``default`` would be sets the
        parameter: a parameter of an enclosing function (its receiver
        aside) does only as far as that one is set."""
        owner = self._owner(value, scope)
        if owner is None or value.id not in owner.params[owner.skip:]:
            return default is None or ast.dump(value) != ast.dump(default)
        return self.is_set(owner, value.id, owner.defaults.get(value.id, default))

    def unset(self) -> "list[str]":
        """``<qualified name>(<parameter>)`` of every checked setting no
        call sets."""
        return [
            f"{signature.qualified}({param})"
            for signature in self.program.signatures
            if signature.checked and not signature.registered
            for param, default in signature.defaults.items()
            if not self.is_set(signature, param, default)
        ]


def _settings_program() -> _Program:
    modules = {
        ".".join(path.relative_to(SRC.parent).with_suffix("").parts): _read(path)
        for path in sorted(SRC.rglob("*.py"))
    }
    modules.update(
        {f"perfbench.{path.stem}": _read(path) for path in sorted((ROOT / _PERF).glob("*.py"))}
    )
    return _scan(modules)


def test_every_setting_has_a_setter_or_a_kept_reason():
    """A defaulted parameter or ``ServerConfig`` field no call in
    ``src/`` or ``perfbench/`` sets fails here, by name, unless
    :data:`SETTINGS` keeps it; a row for a setting that is gone or now
    set fails too."""
    unset = _Setters(_settings_program()).unset()
    unkept, stale = sorted(set(unset) - set(SETTINGS)), sorted(set(SETTINGS) - set(unset))
    assert not unkept, f"settings with no setter (make each a constant): {unkept}"
    assert not stale, f"rows for settings that are gone or set: {stale}"


def test_every_kept_setting_has_a_kept_reason_and_its_file():
    problems = [
        f"{setting}: {reason!r} from {file}"
        for setting, (reason, file) in SETTINGS.items()
        if reason not in SETTING_KEPT
        or not re.search(rf"\b{setting[setting.index('(') + 1:-1]}\b", _read(ROOT / file))
    ]
    assert not problems, f"rows without a kept reason or a file naming the setting: {problems}"


_RULES = {
    "repro.lib": """
def knob(x, *, passed=1, forwarded=2, helped=3, kwargs=4, defaulted=5):
    pass

def outer(level=0):
    knob(1, passed=7, forwarded=level)
    _helper(level + 1)
    _wrap(kwargs=9)
    knob(1, defaulted=5)

def _helper(value):
    knob(1, helped=value)

def _wrap(**options):
    knob(0, **options)

class Built:
    def __init__(self, size=1, spare=2):
        pass

    @classmethod
    def make(cls):
        return cls()
""",
    "perfbench.probe": "from repro.lib import outer\nouter(level=1)\n",
}


def test_the_setting_rules():
    """A passed value sets a parameter, the default does not; a value
    forwarded from a parameter, a private helper's or a ``**kwargs``,
    sets it as that parameter is set; ``cls(...)`` sets every one."""
    setters = _Setters(_scan(_RULES))
    assert setters.unset() == ["repro.lib.knob(defaulted)"]
    probe_free = _Setters(_scan({"repro.lib": _RULES["repro.lib"]})).unset()
    assert probe_free == [
        "repro.lib.knob(forwarded)", "repro.lib.knob(defaulted)", "repro.lib.outer(level)",
    ]
