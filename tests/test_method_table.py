"""Structural pins over ``src/repro``.

:mod:`repro.plan.rules` is the one place the serving stack spells what
it knows about a method: the served names, the forward-deterministic
set, the one endpoint rule, the builder dict beside them, and a
written-once guard.  The maintenance
rule of :mod:`repro.stream.conditions` is written once too, and every
option a simplification removed stays removed."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
import repro.plan.rules
import repro.service.cache
import repro.service.service
import repro.stream.conditions
import repro.stream.registry
import repro.stream.subscription
from repro.bench.variants import VARIANTS, variant_searcher
from repro.core.engine import (
    _OVER_THE_GRID,
    FORWARD_DETERMINISTIC_METHODS,
    METHODS,
    SEARCHER_BUILDERS,
    GeoSocialEngine,
)
from repro.core.ranking import Normalization, RankingFunction
from repro.core.request import QueryRequest
from repro.core.result import SSRQResult
from repro.plan.rules import AUTO, route_method
from repro.service import CacheStats, QueryService, ResultCache, ServiceStats
from repro.service.cache import InvalidationOutcome
from repro.stream import SubscriptionRegistry
from tests.conftest import assert_same_scores, random_instance

SRC = Path(repro.__file__).resolve().parent


def test_the_served_tier_is_seven_methods_and_four_parameters():
    assert METHODS == (
        "sfa", "spa", "tsa", "tsa-qc", "ais", "bounded", "bruteforce"
    )
    assert [f.name for f in dataclasses.fields(QueryRequest)] == [
        "user", "k", "alpha", "method",
    ]
    assert AUTO not in METHODS
    assert not set(VARIANTS) & set(METHODS), "a variant is served"


@pytest.mark.parametrize("name", METHODS)
def test_row_invariants(name):
    """Each served name takes the one endpoint rule, read off the
    weights: a route is a served method and final (it does not route
    again), and where both weights are positive a name runs itself."""
    norm = Normalization(p_max=4.0, d_max=1.5)
    for alpha in (0.0, 5e-324, 1e-323, 0.3, 1.0):
        rank = RankingFunction(alpha, norm)
        route = route_method(name, rank)
        assert route in METHODS
        assert route_method(route, rank) == route
        if name == "bruteforce":
            assert route == name
        elif not rank.needs_social:
            assert route == "bounded"
        elif not rank.needs_spatial:
            assert route == "sfa"
        else:
            assert route == name


#: ``α`` whose social weight is 0 under ``P_max = 3`` (5e-324 underflows),
#: both weights positive (1e-323 leaves one subnormal ulp), and the
#: paper's two endpoints
EDGE_ALPHAS = (0.0, 5e-324, 1e-323, 0.3, 1.0)


@pytest.fixture(scope="module")
def edge_engine():
    graph, locations = random_instance(60, seed=17, coverage=0.8)
    return GeoSocialEngine(
        graph, locations, num_landmarks=2, s=3, seed=1,
        normalization=Normalization(p_max=3.0, d_max=1.5),
    )


@pytest.mark.parametrize("name", [*METHODS, *VARIANTS])
def test_every_searcher_answers_or_refuses_with_its_route(name, edge_engine):
    """Called directly, past the dispatch, every searcher (and each
    reproduction variant, which checks under the name of the searcher
    it configures: ``sfa-ch`` is SFA) answers like ``bruteforce``
    exactly where the endpoint rule lets that name run itself;
    elsewhere it raises the one refusal, naming the zero weight and
    the route."""
    engine = edge_engine
    if name in METHODS:
        searcher, own = engine.searcher(name), name
    else:
        searcher = variant_searcher(engine, name)
        own = name if name == "ais-cache" else name.split("-")[0]
    bruteforce = engine.searcher("bruteforce")
    for alpha in EDGE_ALPHAS:
        rank = RankingFunction(alpha, engine.normalization)
        route = route_method(own, rank)
        weight = "spatial" if rank.needs_social else "social"
        refusal = f"^{own} does not answer a zero {weight} weight: the endpoint rule routes it to "
        for user in engine.located_users()[:4].tolist():
            if route == own:
                want = bruteforce.search(user, 5, alpha)
                assert_same_scores(want, searcher.search(user, 5, alpha))
            else:
                with pytest.raises(ValueError, match=f"{refusal}{route}$"):
                    searcher.search(user, 5, alpha)


def test_derived_constants_equal_their_derivations():
    assert FORWARD_DETERMINISTIC_METHODS == {
        "sfa", "spa", "tsa", "tsa-qc", "bounded", "bruteforce"
    }
    # the searchers a move drops with the grid and the aggregate index
    assert _OVER_THE_GRID == {"spa", "tsa", "tsa-qc", "ais"}
    # one rule, no table: nothing routes on ``alpha`` itself
    for name in ("METHOD_TABLE", "MethodSpec", "static_choice"):
        assert not hasattr(repro.plan.rules, name), name
    assert "alpha ==" not in inspect.getsource(repro.plan.rules)


def test_every_row_has_a_builder_and_every_builder_a_row():
    assert set(SEARCHER_BUILDERS) == set(METHODS)
    graph, locations = random_instance(40, seed=3, coverage=0.9)
    engine = GeoSocialEngine(graph, locations, num_landmarks=2, s=3, seed=1)
    for name in METHODS:
        assert engine.searcher(name) is engine.searcher(name), name
    for name in (*VARIANTS, AUTO, "warp"):
        with pytest.raises(ValueError, match="unknown method"):
            engine.searcher(name)


def _method_name_collections(path: Path):
    """``(lineno, names)`` for every set/tuple/list/dict-key literal in
    ``path`` holding two or more served-method names."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
            elements = node.elts
        elif isinstance(node, ast.Dict):
            elements = [key for key in node.keys if key is not None]
        else:
            continue
        names = [
            e.value for e in elements
            if isinstance(e, ast.Constant) and e.value in METHODS
        ]
        if len(names) >= 2:
            yield node.lineno, names


def test_method_names_are_collected_in_one_place():
    """Outside ``METHODS`` (``plan/rules.py``), the builder dict and
    the searchers over the grid (``core/engine.py``) and the
    reproduction tier (``bench/``), no module of ``src/repro`` holds a
    literal collection of method names."""
    allowed = {SRC / "plan" / "rules.py": 1, SRC / "core" / "engine.py": 2}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if (SRC / "bench") in path.parents:
            continue
        found = list(_method_name_collections(path))
        if len(found) != allowed.get(path, 0):
            offenders.append((str(path.relative_to(SRC)), found))
    assert not offenders, offenders


# -- the maintenance rule, written once ---------------------------------------

CONSUMERS = (
    repro.service.cache,
    repro.service.service,
    repro.stream.registry,
    repro.stream.subscription,
)


def test_the_maintenance_rule_is_written_once():
    """The screen bound and the k-th-key escalation test live in
    :mod:`repro.stream.conditions` only; the consumers carry no copy to
    drift, and the re-score has one caller, the registry."""
    cache_source = inspect.getsource(repro.service.cache)
    for token in ("sqrt", "_TINY", "_KEY_"):
        assert token not in cache_source, f"repro.service.cache re-derives {token}"
    for module in CONSUMERS:
        source = inspect.getsource(module)
        for token in ("kth_key", "w_spatial *", "sqrt"):
            assert token not in source, f"{module.__name__} carries its own {token}"
        if module is not repro.stream.registry:
            assert "rescore_members" not in source, f"{module.__name__} repairs"
    rule = inspect.getsource(repro.stream.conditions)
    assert rule.count("> kth_key") == 1
    assert rule.count("w_spatial * euclidean(") == 1


#: names accepted only because the benchmark harness passes them; they
#: change nothing
PINNED_NO_EFFECT = {"QueryService": ["max_workers"]}


def test_removed_options_stay_removed():
    """Two independently settable options across the three
    constructors (11 before): nothing the benchmark or a caller ever
    set to a second value comes back unnoticed.  The social column
    budget is the engine's alone."""
    settable = {
        cls.__name__: sorted(
            name
            for name, p in inspect.signature(cls.__init__).parameters.items()
            if p.default is not inspect.Parameter.empty
            and name not in PINNED_NO_EFFECT.get(cls.__name__, ())
        )
        for cls in (QueryService, ResultCache, SubscriptionRegistry)
    }
    assert settable == {
        "QueryService": ["cache_size"],
        "ResultCache": ["capacity"],
        "SubscriptionRegistry": [],
    }
    # one execution path per batch: the service's, on the caller's
    # thread.  ``max_workers`` is accepted, has no effect, and is pinned
    # by perfbench; the engine has no batch call and the core imports
    # no service
    assert "max_workers" in inspect.signature(QueryService.__init__).parameters
    assert not hasattr(GeoSocialEngine, "query_many")
    assert not hasattr(QueryService, "_executor")
    for module in pkgutil.iter_modules(repro.core.__path__, "repro.core."):
        source = inspect.getsource(importlib.import_module(module.name))
        assert "from repro.service" not in source, module.name
        assert "import repro.service" not in source, module.name
    # one edge-update path: a log folded at rebuild — no companion
    # tables to attach, no listener chain to hang a second path on
    for name in (
        "attach_dynamics", "dynamics", "add_edge_update_listener", "remove_edge_update_listener",
    ):
        assert not hasattr(QueryService, name), name
    # ``ais-cache`` left the served tier (repro.bench.variants builds
    # it) and took its list length with it: no ``t`` on the request,
    # the public edges or the CLI, no ``default_t`` on the engine
    from repro.cli.commands import query as query_command
    from repro.server.client import ServerClient

    assert "t" not in {f.name for f in dataclasses.fields(QueryRequest)}
    for edge in (
        QueryRequest.coerce, GeoSocialEngine.query, GeoSocialEngine.searcher,
        QueryService.query, QueryService.query_many, SubscriptionRegistry.subscribe,
        ServerClient.query, ServerClient.tail,
    ):
        assert "t" not in inspect.signature(edge).parameters, edge.__qualname__
    assert "default_t" not in inspect.signature(GeoSocialEngine.__init__).parameters
    assert "-t" not in {opt for p in query_command.params for opt in p.opts}
    # one engine kind: no sharded engine, no member filter, no warm start
    assert "shard" not in {module.name for module in pkgutil.iter_modules(repro.__path__)}
    assert {"index_users", "social_cache"}.isdisjoint(
        inspect.signature(GeoSocialEngine.__init__).parameters
    )
    assert "initial" not in inspect.signature(GeoSocialEngine.query).parameters
    # exact answers only: no sketch package, no ``approx`` method, no
    # ``budget`` at any edge, no ``sketch=`` and no ``error_bound``
    assert "sketch" not in {module.name for module in pkgutil.iter_modules(repro.__path__)}
    assert "approx" not in METHODS
    assert "budget" not in {f.name for f in dataclasses.fields(QueryRequest)}
    for edge in (
        QueryRequest.coerce, GeoSocialEngine.query, QueryService.query,
        QueryService.query_many, ServerClient.query,
    ):
        assert "budget" not in inspect.signature(edge).parameters, edge.__qualname__
    assert "--budget" not in {opt for p in query_command.params for opt in p.opts}
    assert "sketch" not in inspect.signature(GeoSocialEngine.__init__).parameters
    assert not hasattr(GeoSocialEngine, "sketch")
    assert "error_bound" not in {f.name for f in dataclasses.fields(SSRQResult)}
    # nothing is resolved before the cache or at subscribe time: the
    # cache keys and every subscription keep the request as asked
    from repro.stream.subscription import Subscription

    assert not hasattr(QueryService, "_line")
    assert "auto" not in Subscription.__slots__
    assert not hasattr(QueryRequest, "with_method")
    # the result cache keeps or evicts; only the registry repairs, and
    # both find the affected results by screening every one (no index)
    for path in SRC.rglob("*.py"):
        assert "StoredIndex" not in path.read_text(encoding="utf-8"), path
    cache = ResultCache(capacity=1)
    for name in ("_index", "_repair_member_locked"):
        assert not hasattr(cache, name), name
    assert not hasattr(InvalidationOutcome(0), "repaired")
    assert "repaired" not in {f.name for f in dataclasses.fields(CacheStats)}
    assert "repaired_entries" not in {f.name for f in dataclasses.fields(ServiceStats)}
    graph, locations = random_instance(20, seed=1, coverage=0.8)
    with QueryService(GeoSocialEngine(graph, locations, num_landmarks=2)) as service:
        assert "repaired" not in service.cache_info()
        assert "repaired_entries" not in service.stats.snapshot()
    # a snapshot holds the data, not the indexes: nothing injects a
    # grid or a landmark index into an engine, and neither index has a
    # persistence format
    from repro.graph.landmarks import LandmarkIndex
    from repro.spatial.grid import UniformGrid

    assert {"grid", "landmarks"}.isdisjoint(inspect.signature(GeoSocialEngine.__init__).parameters)
    for cls, name in (
        (UniformGrid, "to_arrays"), (UniformGrid, "from_arrays"), (LandmarkIndex, "from_tables"),
    ):
        assert not hasattr(cls, name), name
    # one admitted request, one job: the server merges no queued
    # requests, so there is no batch ceiling and no batch drain
    from repro.cli.commands import serve as serve_command
    from repro.server import ServerConfig, SSRQServer

    assert {f.name for f in dataclasses.fields(ServerConfig)} == {
        "host", "port", "queue_depth", "workers", "default_deadline_ms",
        "retry_after_s", "heartbeat_s", "drain_snapshot_root",
    }
    assert "--max-batch" not in {opt for p in serve_command.params for opt in p.opts}
    with QueryService(GeoSocialEngine(graph, locations, num_landmarks=2)) as service:
        server = SSRQServer(service)
        for name in ("_drain", "_execute", "_take_lock"):
            assert not hasattr(server, name), name
    # one source of social columns: the column step hands no searcher a
    # stream and promotes none (the method table says only ``forward``:
    # ``test_derived_constants_equal_their_derivations``), and the NumPy
    # backend's only Dijkstra is scipy's (a dependency)
    from repro.core.bruteforce import BruteForceSearch
    from repro.social.scan import column_step

    assert list(inspect.signature(column_step).parameters) == ["engine", "method", "request"]
    assert not hasattr(GeoSocialEngine, "_run")
    engine = GeoSocialEngine(graph, locations, num_landmarks=2)
    for name in METHODS:
        assert "social" not in inspect.signature(engine.searcher(name).search).parameters, name
    assert hasattr(BruteForceSearch, "scan")
    scan_source = inspect.getsource(importlib.import_module("repro.social.scan"))
    for token in ("DijkstraIterator", "checkin", "exhaust"):
        assert token not in scan_source, token
    numpy_source = inspect.getsource(importlib.import_module("repro.backend.numpy_backend"))
    for token in ("settle_all", "ImportError", "dense_from_dict(graph.n"):
        assert token not in numpy_source, token
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'dependencies = ["numpy>=1.22", "scipy>=1.8"]' in pyproject
    assert "fast = " not in pyproject
