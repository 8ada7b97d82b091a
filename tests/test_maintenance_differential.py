"""Cross-consumer differential: one maintenance rule, two policies.

The result cache and the subscription registry both keep top-k results
past the query that produced them, and both decide what a location
update does to a stored result through :mod:`repro.stream.conditions`.
This suite drives *one* randomized move/forget stream through a
``ResultCache``-backed service and a registry over the same engine and
checks, after every step:

- each consumer applied its policy to the rule's verdict
  (:func:`~repro.stream.conditions.classify_location_update`, computed
  here from the stored result alone): the cache kept every NO-OP entry
  as the same result object and evicted every other one; the registry
  left NO-OPs clean, queued repairable REPAIRs, and marked the rest.
  Moves and forgets alike run through both consumers' full scans;
- whatever the cache still holds equals a fresh ``engine.query``, and
  so does ``registry.result(sub)``.

Edge updates ride the same suite: a second property interleaves the
move stream with ``edge`` steps (insert / re-weight / delete, the same
edge touched twice, delete-then-reinsert, a delete of an absent edge)
and ``rebuild`` steps, over undirected and directed graphs.  Until a
rebuild nothing served may change — both consumers untouched, repeats
still ``cached`` — and every answer equals bruteforce over the
*served* edge set; after it every answer equals a fresh engine over
``SocialGraph.from_edges`` of the model's edge set.

Same derandomized Hypothesis profile as the stream suite; CI runs the
file under ``REPRO_BACKEND=python`` and ``=numpy``.  The file also
pins the one case where the two pre-unification rules differed, and
guards that the rule stays written once.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.service.cache
import repro.service.service
import repro.stream.conditions
import repro.stream.registry
import repro.stream.subscription
from repro.core.engine import GeoSocialEngine
from repro.core.result import Neighbor, SSRQResult
from repro.graph.socialgraph import SocialGraph
from repro.plan.rules import METHOD_TABLE
from repro.service import CacheStats, QueryRequest, QueryService, ResultCache, ServiceStats
from repro.service.cache import InvalidationOutcome
from repro.stream import (
    NOOP,
    RECOMPUTE,
    REPAIR,
    SubscriptionRegistry,
    classify_location_update,
)
from tests.conftest import cache_put, random_instance
from tests.test_graph_directed import random_digraph
from tests.test_stream_equivalence import STREAM_CI, assert_maintained_equals_fresh

#: repairable forward methods, one that is screened but never repaired,
#: and ``auto``, whose subscriptions re-resolve on every recompute
METHODS = ("tsa", "sfa", "spa", "bounded", "bruteforce", "ais", "auto")
STEPS = 14
#: the forward-deterministic ones: pinned bit-identical to bruteforce,
#: on directed graphs too
EXACT_METHODS = ("tsa", "sfa", "spa", "bounded", "bruteforce", "auto")


def verdict(stored, engine, mover, x, y):
    """The rule's verdict for one stored result, from its fields alone."""
    result = stored.result
    return classify_location_update(
        mover,
        x,
        y,
        query_user=stored.request.user,
        alpha=stored.request.alpha,
        w_spatial=stored.rank.w_spatial,
        members=frozenset(result.users),
        size=len(result.neighbors),
        k=stored.request.k,
        fk=result.fk,
        query_xy=engine.locations.get(stored.request.user),
    )


def pick_update(rng, engine, subs):
    """One update aimed at a named case: the query user, a member, an
    outsider landing next to a query user or far outside the box, an
    unlocated user appearing, or a forgotten member/outsider/query
    user.  Returns ``(mover, x, y)`` with ``x is None`` for a forget."""
    located = list(engine.locations.located_users())
    unlocated = [u for u in range(engine.graph.n) if not engine.locations.has_location(u)]
    sub = rng.choice(subs)
    members = [u for u in sub.members() if u != sub.user]
    outsiders = [u for u in located if u != sub.user and u not in sub.members()]
    anchor = engine.locations.get(sub.user) or (rng.random(), rng.random())
    near = (anchor[0] + rng.uniform(-0.01, 0.01), anchor[1] + rng.uniform(-0.01, 0.01))
    case = rng.choice(
        ("query", "member", "member-far", "near", "far", "appear", "forget", "forget-member")
    )
    if case == "query":
        return sub.user, rng.random(), rng.random()
    if case == "member" and members:
        return rng.choice(members), *near
    if case == "member-far" and members:
        return rng.choice(members), rng.uniform(2.0, 3.0), rng.uniform(2.0, 3.0)
    if case == "near" and outsiders:
        return rng.choice(outsiders), *near
    if case == "appear" and unlocated:
        return rng.choice(unlocated), *(near if rng.random() < 0.5 else (rng.random(), rng.random()))
    if case == "forget-member" and members:
        return rng.choice(members), None, None
    if case == "forget" and len(located) > 2:
        return rng.choice(located), None, None
    return rng.choice(outsiders or located), rng.uniform(4.0, 5.0), rng.uniform(4.0, 5.0)


@STREAM_CI
@given(
    n=st.integers(min_value=30, max_value=70),
    seed=st.integers(min_value=0, max_value=2**16),
    alpha=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
    k=st.sampled_from((1, 4, 64)),  # 64 > located users: every result has an open slot
    method=st.sampled_from(METHODS),
)
def test_cache_and_registry_apply_one_rule_and_stay_fresh(n, seed, alpha, k, method):
    rng = random.Random(seed)
    graph, locations = random_instance(n, seed=seed, coverage=0.7)
    engine = GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=3)
    service = QueryService(engine, cache_size=64, max_workers=1)
    registry = SubscriptionRegistry(service)
    query_users = rng.sample(list(engine.locations.located_users()), 3)
    requests = [QueryRequest(u, k=k, alpha=alpha, method=method) for u in query_users]
    subs = [registry.subscribe(request) for request in requests]
    cache = service.cache

    for step in range(STEPS):
        for request in requests:  # (re)fill what the last step evicted
            if engine.locations.has_location(request.user) or alpha == 1.0:
                service.query(request)
        mover, x, y = pick_update(rng, engine, subs)
        context = f"step {step}: {'forget' if x is None else 'move'} {mover} -> ({x}, {y})"
        before = {
            key: (entry.result, verdict(entry, engine, mover, x, y))
            for key, entry in cache._entries.items()
        }
        expected = {
            sub: verdict(sub, engine, mover, x, y) for sub in subs if sub.result is not None
        }
        assert not any(sub.dirty for sub in subs), context

        if x is None:
            service.forget_location(mover)
        else:
            service.move_user(mover, x, y)

        # -- the cache's policy over the rule's verdict: keep or evict
        for key, (old, kind) in before.items():
            held = cache.peek(key)
            if kind == NOOP:
                assert held is old, f"{context}: NO-OP entry was touched"
            else:
                assert held is None, f"{context}: {kind} entry survived"
        # -- the registry's policy over the same verdict
        for sub, kind in expected.items():
            if kind == NOOP:
                assert not sub.dirty, f"{context}: NO-OP dirtied {sub}"
            elif kind == REPAIR and sub.repairable:
                assert sub.pending == {mover} and not sub.recompute_pending, context
            else:
                assert sub.recompute_pending, f"{context}: {kind} not marked on {sub}"

        # -- both stay equal to a fresh query
        for sub in subs:
            try:
                fresh = engine.query(sub.request)
            except ValueError:
                with pytest.raises(ValueError, match="no known location"):
                    registry.result(sub)
                continue
            assert_maintained_equals_fresh(sub, registry.result(sub), fresh, context)
            for entry in cache._entries.values():
                if entry.request == sub.request:
                    assert_maintained_equals_fresh(sub, entry.result, fresh, f"{context} (cache)")

    registry.close()
    service.close()


# -- edge updates: recorded, then folded by the rebuild -----------------------


def edge_key(u, v, directed):
    return (u, v) if directed or u < v else (v, u)


def pick_edge(rng, model, touched, n, directed):
    """One edge update aimed at a named case: a new edge, a re-weight,
    a delete, the edge touched last time once more, a deleted edge
    re-inserted, or a delete of an edge that is not there.  ``model``
    maps the expected graph's edges to their weights, ``touched`` lists
    the keys updated so far.  Returns ``(u, v, weight)``, an undirected
    edge in either orientation."""
    case = rng.choice(("insert", "reweight", "delete", "again", "reinsert", "absent"))
    present = sorted(model)
    gone = [key for key in touched if key not in model]
    if case == "reweight" and present:
        key, weight = rng.choice(present), rng.uniform(0.05, 1.0)
    elif case == "delete" and present:
        key, weight = rng.choice(present), None
    elif case == "again" and touched:
        key = touched[-1]
        weight = None if key in model and rng.random() < 0.5 else rng.uniform(0.05, 1.0)
    elif case == "reinsert" and gone:
        key, weight = rng.choice(gone), rng.uniform(0.05, 1.0)
    else:
        key = edge_key(*rng.sample(range(n), 2), directed)
        while key in model:
            key = edge_key(*rng.sample(range(n), 2), directed)
        weight = None if case == "absent" else rng.uniform(0.05, 1.0)
    u, v = key
    return (v, u, weight) if not directed and rng.random() < 0.5 else (u, v, weight)


def ranking(result):
    return [(nb.user, nb.score) for nb in result]


@STREAM_CI
@given(
    n=st.integers(min_value=30, max_value=60),
    seed=st.integers(min_value=0, max_value=2**16),
    directed=st.booleans(),
    alpha=st.sampled_from((0.3, 0.7, 1.0)),
    method=st.sampled_from(EXACT_METHODS),
)
def test_edge_updates_change_nothing_served_until_a_rebuild_folds_them(
    n, seed, directed, alpha, method
):
    rng = random.Random(seed)
    graph, locations = random_instance(n, seed=seed, coverage=0.7)
    if directed:
        graph = random_digraph(n, 3.0, seed)
    engine = GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=3)
    service = QueryService(engine, cache_size=64, max_workers=1)
    registry = SubscriptionRegistry(service)
    query_users = rng.sample(list(engine.locations.located_users()), 3)
    requests = [QueryRequest(u, k=4, alpha=alpha, method=method) for u in query_users]
    subs = [registry.subscribe(request) for request in requests]
    cache = service.cache

    #: the expected graph, and what of it the served engine was built from
    model = {edge_key(u, v, directed): w for u, v, w in graph.edges()}
    served = dict(model)
    touched: list = []
    pending: set = set()

    def answerable(request):
        return alpha == 1.0 or service.engine.locations.has_location(request.user)

    for step in range(STEPS):
        kind = rng.choice(("edge", "edge", "edge", "move", "rebuild"))
        context = f"step {step}: {kind}"
        if kind == "edge":
            warm = [service.query(r) for r in requests if answerable(r)]
            held = {key: entry.result for key, entry in cache._entries.items()}
            u, v, weight = pick_edge(rng, model, touched, n, directed)
            key = edge_key(u, v, directed)
            context += f" ({u}, {v}) -> {weight}"
            if weight is None and key not in model:
                with pytest.raises(KeyError):
                    service.update_edge(u, v, None)
            else:
                service.update_edge(u, v, weight)
                touched.append(key)
                pending.add(key)
                if weight is None:
                    del model[key]
                else:
                    model[key] = weight
            # nothing served moved: both consumers untouched, and a
            # repeat issued across the update is still a hit (``auto``
            # may re-resolve to another method's line)
            assert not any(sub.dirty for sub in subs), context
            now = {key: entry.result for key, entry in cache._entries.items()}
            assert now.keys() == held.keys() and all(now[k] is held[k] for k in held), context
            if method != "auto":
                for response in warm:
                    again = service.query(response.request)
                    assert again.cached and again.result is response.result, context
        elif kind == "move":
            mover, x, y = pick_update(rng, service.engine, subs)
            if x is None:
                service.forget_location(mover)
            else:
                service.move_user(mover, x, y)
        else:
            old = service.engine
            new_engine = service.rebuild_engine()
            assert service.engine is new_engine is not old, context
            assert len(cache) == 0, context
            served = dict(model)
            pending.clear()
        assert service.pending_edge_updates == len(pending), context
        assert sorted(service.engine.graph.edges()) == sorted(
            (u, v, w) for (u, v), w in served.items()
        ), context

        # -- every answer equals bruteforce on a fresh single engine
        # built from the served edge set (the model's, after a rebuild)
        edges = [(u, v, w) for (u, v), w in served.items()]
        rng.shuffle(edges)
        fresh = GeoSocialEngine(
            SocialGraph.from_edges(n, edges, directed),
            service.engine.locations.copy(),
            num_landmarks=3,
            s=4,
            seed=3,
            normalization=service.engine.normalization,
        )
        for request, sub in zip(requests, subs):
            try:
                answer = service.query(request).result
            except ValueError:
                with pytest.raises(ValueError, match="no known location"):
                    registry.result(sub)
                continue
            truth = ranking(fresh.query(sub.user, sub.k, sub.alpha, "bruteforce"))
            assert ranking(answer) == truth, f"{context}: service, {sub}"
            assert ranking(registry.result(sub)) == truth, f"{context}: registry, {sub}"

    registry.close()
    service.close()
    service.engine.close()


# -- the one case the two pre-unification rules disagreed on ----------------


def test_forgetting_member_of_open_slot_result_is_a_recompute():
    """A member that forgets its location leaves the result.  With an
    open slot (``|R| < k``) dropping it would be exact — the cache used
    to do that while the registry recomputed.  One rule now: RECOMPUTE,
    so the cache evicts the line and the registry marks the
    subscription."""
    members = [Neighbor(5, 0.2, 0.1, 0.1), Neighbor(9, 0.4, 0.2, 0.3)]
    kind = classify_location_update(
        9, None, None, query_user=0, alpha=0.5, w_spatial=0.5,
        members=frozenset({5, 9}), size=2, k=3, fk=0.4, query_xy=(0.0, 0.0),
    )
    assert kind == RECOMPUTE
    cache = ResultCache(capacity=4)
    key = cache_put(cache, 0, 3, 0.5, "tsa", members)
    out = cache.invalidate_location_update(9, None, None, query_location=lambda u: (0.0, 0.0))
    assert (int(out), out.reused) == (1, 0)
    assert cache.peek(key) is None

    graph, locations = random_instance(40, seed=11, coverage=0.5)
    engine = GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=3)
    with QueryService(engine, cache_size=8) as service:
        registry = SubscriptionRegistry(service)
        q = next(iter(engine.locations.located_users()))
        sub = registry.subscribe(q, k=64, alpha=0.5, method="tsa")
        response = service.query(sub.request)
        assert len(response.result.neighbors) < 64, "needs an open slot"
        leaver = next(u for u in response.result.users if u != q)
        service.forget_location(leaver)
        assert sub.recompute_pending and not sub.pending
        assert len(service.cache) == 0
        fresh = engine.query(sub.request)
        assert leaver not in fresh.users
        assert_maintained_equals_fresh(sub, registry.result(sub), fresh, "open-slot forget")
        registry.close()


# -- written once (in the style of tests/test_engine_facade.py) -------------

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
    """Three independently settable options across the three
    constructors (11 before): nothing the benchmark or a caller ever
    set to a second value comes back unnoticed."""
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
        "QueryService": ["cache_size", "social_cache_bytes"],
        "ResultCache": ["capacity"],
        "SubscriptionRegistry": [],
    }
    # one execution path per batch: the caller's thread.  ``max_workers``
    # is accepted, has no effect, and is pinned by perfbench; the engine's
    # batch call has no width at all and the core imports no service
    assert "max_workers" in inspect.signature(QueryService.__init__).parameters
    assert "max_workers" not in inspect.signature(GeoSocialEngine.query_many).parameters
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
        QueryRequest.coerce, GeoSocialEngine.query, GeoSocialEngine.query_many,
        GeoSocialEngine.searcher, QueryService.query, QueryService.query_many,
        SubscriptionRegistry.subscribe, ServerClient.query, ServerClient.tail,
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
    assert "approx" not in METHOD_TABLE
    assert "budget" not in {f.name for f in dataclasses.fields(QueryRequest)}
    for edge in (
        QueryRequest.coerce, GeoSocialEngine.query, GeoSocialEngine.query_many,
        QueryService.query, QueryService.query_many, ServerClient.query,
    ):
        assert "budget" not in inspect.signature(edge).parameters, edge.__qualname__
    assert "--budget" not in {opt for p in query_command.params for opt in p.opts}
    assert "sketch" not in inspect.signature(GeoSocialEngine.__init__).parameters
    assert not hasattr(GeoSocialEngine, "sketch")
    assert "error_bound" not in {f.name for f in dataclasses.fields(SSRQResult)}
    # the result cache keeps or evicts; only the registry repairs, and
    # both find the affected results by screening every one (no index)
    src = pathlib.Path(repro.__file__).parent
    for path in src.rglob("*.py"):
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
