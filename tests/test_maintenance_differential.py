"""Edge updates through a cached service and a registry: recorded,
then folded by the rebuild.

One randomized stream interleaves moves and forgets (aimed at named
cases: the query user, a member, an outsider landing near or far, an
unlocated user appearing) with ``edge`` steps (insert / re-weight /
delete, the same edge touched twice, delete-then-reinsert, a delete of
an absent edge) and ``rebuild`` steps, over undirected and directed
graphs.  Until a rebuild nothing served may change — the result cache
and the registry untouched, repeats still ``cached`` — and every
answer equals bruteforce over the *served* edge set; after it every
answer equals a fresh engine over ``SocialGraph.from_edges`` of the
model's edge set.

Runs under a fixed, derandomized Hypothesis profile.  What one
location update does to each stored result (the rule's verdict and
each consumer's policy over it) is checked step by step by the
whole-stack model in ``tests/test_service_model.py``; the guards that
the rule stays written once and that removed options stay removed live
in ``tests/test_method_table.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import GeoSocialEngine
from repro.graph.socialgraph import SocialGraph
from repro.service import QueryRequest, QueryService
from repro.stream import SubscriptionRegistry
from tests.conftest import random_instance
from tests.test_graph_directed import random_digraph

settings.register_profile(
    "stream-ci",
    max_examples=16,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
STREAM_CI = settings.get_profile("stream-ci")

STEPS = 14
#: the forward-deterministic ones: pinned bit-identical to bruteforce,
#: on directed graphs too
EXACT_METHODS = ("tsa", "sfa", "spa", "bounded", "bruteforce", "auto")


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
