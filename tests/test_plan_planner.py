"""Unit tests for the ``auto`` resolver: the one endpoint rule (read
off the score's weights), ``bounded`` in the interior, path
determinism, the names the benchmark harness reaches, the unified
``Searcher`` execution-stats contract, and the planner across engine
rebuilds."""

from __future__ import annotations

import math
import random

import pytest

from repro.bench.variants import VARIANTS, variant_searcher
from repro.core.engine import AUTO, METHODS, FORWARD_DETERMINISTIC_METHODS, GeoSocialEngine
from repro.core.ranking import Normalization, RankingFunction
from repro.core.searcher import Searcher
from repro.plan import AdaptivePlanner, Planner, route_method
from repro.service import QueryRequest, QueryService
from tests.conftest import random_instance


@pytest.fixture(scope="module")
def engine():
    graph, locations = random_instance(250, seed=11, coverage=0.8)
    return GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=5)


# -- rules -------------------------------------------------------------


class TestRules:
    def test_route_method_reads_the_score_weights(self):
        norm = Normalization(p_max=4.0, d_max=1.5)
        interior, spatial, social = (RankingFunction(a, norm) for a in (0.4, 0.0, 1.0))
        for method in METHODS:
            assert route_method(method, interior) == method
        assert route_method(AUTO, interior) == "bounded"
        for method in (*METHODS, AUTO):
            reference = method == "bruteforce"
            assert route_method(method, spatial) == ("bruteforce" if reference else "bounded")
            assert route_method(method, social) == ("bruteforce" if reference else "sfa")
        # the weights decide, not alpha: here alpha / P_max underflows
        underflow = RankingFunction(5e-324, norm)
        assert underflow.alpha > 0.0 and not underflow.needs_social
        assert route_method("tsa", underflow) == "bounded"

    def test_route_method_is_public_from_the_rule_layer_only(self):
        import repro
        import repro.core.engine as engine_module

        assert repro.route_method is route_method
        assert "route_method" not in engine_module.__all__

    def test_default_candidates_are_forward_deterministic(self):
        """The two paths interior ``auto`` takes (``bounded`` with its
        first ball, or without it: the ``bruteforce`` path) stay inside
        the forward-deterministic families: that is what makes auto
        results bit-identical to bruteforce and auto subscriptions
        repairable."""
        assert Planner.candidates == ("bounded", "bruteforce")
        assert set(Planner.candidates) <= FORWARD_DETERMINISTIC_METHODS

    def test_tsa_qc_is_an_opt_in_candidate(self, engine):
        """The paper's incremental searchers are served, but off the
        path ``auto`` takes (the column arms beat each of them): a
        caller opts in by naming one and gets that method's exact
        answer."""
        user = located(engine)[0]
        brute = engine.query(user, 10, 0.5, method="bruteforce")
        for method in ("tsa-qc", "sfa", "spa", "tsa"):
            assert method in METHODS and method not in Planner.candidates
            result = engine.query(user, 10, 0.5, method=method)
            assert result.method == method
            assert result.users == brute.users
        assert engine.query(user, 10, 0.5).method == "bounded"


# -- planner -----------------------------------------------------------


def located(engine, count=1):
    return sorted(engine.locations.located_users())[:count]


class TestPlanner:
    def test_explicit_methods_pass_through(self, engine):
        before = engine.planner.stats.snapshot()
        assert engine.resolve_method(QueryRequest(0, 10, 0.3, "tsa")) == "tsa"
        assert engine.resolve_method(QueryRequest(0, 10, 0.0, "tsa")) == "bounded"
        assert engine.planner.stats.snapshot() == before  # never asked

    def test_static_endpoint_resolutions(self, engine):
        planner = Planner()
        assert planner.resolve(engine, QueryRequest(0, 10, 0.0, AUTO)) == "bounded"
        assert planner.resolve(engine, QueryRequest(0, 10, 1.0, AUTO)) == "sfa"
        assert planner.stats.static_routes == 1

    def test_interior_auto_is_bounded_and_the_engine_refuses_an_unlocated_user(self, engine):
        """The planner has no location route: an unlocated query user
        below ``alpha == 1`` is refused by the engine itself, with the
        one error every method raises (the stream layer suspends on
        it)."""
        planner = Planner()
        unlocated = next(u for u in range(engine.graph.n) if engine.locations.get(u) is None)
        for alpha in (1e-9, 0.3, 0.999):
            request = QueryRequest(located(engine)[0], 10, alpha, AUTO)
            assert planner.resolve(engine, request) == "bounded"
        assert planner.stats.snapshot() == {
            "auto_resolutions": 3, "static_routes": 0, "per_method": {"bounded": 3},
        }
        for method in (AUTO, "bruteforce"):
            with pytest.raises(ValueError, match="no known location"):
                engine.query(unlocated, 10, 0.3, method)

    def test_auto_takes_the_same_path_whatever_the_call_history(self):
        """``bounded`` decides on its first ball from profiles sampled
        once per graph, never from what ran before: two engines asked
        the same questions in different orders, one of them between
        unrelated queries, run every question the same way."""
        graph, locations = random_instance(400, seed=23, coverage=0.9)
        engines = [
            GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=5, social_cache_bytes=0)
            for _ in range(2)
        ]
        users = sorted(locations.located_users())[:12]
        questions = [(u, k, a) for u in users for k, a in ((3, 0.1), (10, 0.5), (5, 0.9))]

        def path(result):
            extra = result.stats.extra
            return result.method, extra["bounded_passes"], extra["bounded_radius"]

        forward = {q: path(engines[0].query(*q)) for q in questions}
        rng = random.Random(4)
        shuffled = {}
        for q in rng.sample(questions, len(questions)):
            engines[1].query(rng.choice(users), 7, rng.random(), rng.choice(("tsa", "sfa")))
            shuffled[q] = path(engines[1].query(*q))
        assert shuffled == forward
        # spatial-heavy: the rule skips the ball (one unbounded column);
        # social-heavy: it takes the ball and stops at a radius
        assert {forward[(u, 3, 0.1)] for u in users} == {("bounded", 1, math.inf)}
        assert all(forward[(u, 5, 0.9)][2] < math.inf for u in users)

    def test_the_names_the_benchmark_harness_reaches(self, engine):
        """perfbench builds ``AdaptivePlanner(seed=...)`` and calibrates
        it, takes ``min()`` over ``planner.candidates``, reads
        ``planner.stats.snapshot()``, and wraps ``resolve``/``observe``
        per instance — expecting a ``resolve`` span for every ``auto``
        query the engine answers."""
        assert AdaptivePlanner is Planner
        assert AdaptivePlanner(seed=3).calibrate(engine) == 0
        planner = engine.planner
        assert planner.calibrate(engine) == 0 and "bruteforce" in planner.candidates
        calls = []
        resolve = planner.resolve
        planner.resolve = lambda *args: calls.append(args) or resolve(*args)
        try:
            planner.observe(None, 1.0)
            before = planner.stats.snapshot()["auto_resolutions"]
            engine.query(located(engine)[0], 5, 0.4)
            engine.query(located(engine)[0], 5, 0.4, method="tsa")
            assert len(calls) == 1
            assert planner.stats.snapshot()["auto_resolutions"] == before + 1
        finally:
            del planner.resolve

    def test_observe_ignores_static_and_explicit(self, engine):
        """``observe`` records nothing, whatever it is handed: there is
        no feedback loop left."""
        planner = Planner()
        planner.resolve(engine, QueryRequest(0, 10, 0.0, AUTO))
        before = planner.stats.snapshot()
        for method in ("spa", "tsa", "bounded"):
            planner.observe(method, 1.0)
        assert planner.stats.snapshot() == before

    def test_auto_query_feeds_feedback_loop(self, engine):
        """What an ``auto`` query feeds back is a count, not a cost: its
        resolution lands in the planner's counters; an explicit method
        never does."""
        user = located(engine)[0]
        before = engine.planner.stats.snapshot()
        result = engine.query(user, k=5, alpha=0.5, method=AUTO)
        engine.query(user, k=5, alpha=0.5, method="tsa")
        after = engine.planner.stats.snapshot()
        assert result.method in Planner.candidates
        assert after["auto_resolutions"] == before["auto_resolutions"] + 1
        assert after["static_routes"] == before["static_routes"]
        assert after["per_method"]["bounded"] == before["per_method"].get("bounded", 0) + 1
        assert "tsa" not in after["per_method"]

    def test_rejects_bad_parameters(self):
        """The learner's knobs are gone, not ignored: a caller still
        passing candidates or an exploration rate hears about it."""
        for knob in ({"candidates": ("tsa",)}, {"epsilon": 0.1}, {"calibrate": False}):
            with pytest.raises(TypeError):
                Planner(**knob)

    def test_misnamed_candidate_is_refused_at_construction(self):
        """No candidate set is configurable, so any name handed in as
        one, misspelt or not, is refused when the planner is built,
        never at query time."""
        for candidates in (("sfa", "tsa_qc"), ("sfa", AUTO), Planner.candidates):
            with pytest.raises(TypeError, match="candidates"):
                AdaptivePlanner(candidates=candidates)

    def test_planner_survives_with_graph_rebuild(self, engine):
        """``with_graph`` builds an engine with a planner of its own;
        the swap ``rebuild_engine`` makes is what hands the served
        planner on."""
        assert engine.with_graph(engine.graph).planner is not engine.planner
        u, v = sorted(engine.locations.located_users())[:2]
        with QueryService(engine, cache_size=0) as service:
            service.update_edge(u, v, 0.25)
            rebuilt = service.rebuild_engine()
            assert rebuilt.planner is engine.planner
            assert rebuilt._landmarks is None  # built again only if read

    def test_planner_survives_a_service_rebuild(self, engine, tmp_path):
        """Every engine swap, ``rebuild_engine``'s and a snapshot
        restore's, hands the served planner on, and so its counters."""
        u, v = sorted(engine.locations.located_users())[:2]
        request = QueryRequest(u, k=5, alpha=0.3, method=AUTO)
        with QueryService(engine, cache_size=0) as service:
            manager = service.snapshots(tmp_path / "snaps")
            manager.snapshot()
            service.query(request)
            service.update_edge(u, v, 0.25)
            assert service.rebuild_engine().planner is engine.planner
            service.query(request)
            before = engine.planner.stats.snapshot()
            restored = manager.restore()
            assert restored.planner is engine.planner
            after = restored.planner.stats.snapshot()
            assert after == before and after["auto_resolutions"] >= 2


# -- the unified searcher contract ------------------------------------


class TestSearcherContract:
    def test_every_method_searcher_satisfies_protocol(self, engine):
        for method in METHODS:
            assert isinstance(engine.searcher(method), Searcher), method
        for method in VARIANTS:
            assert isinstance(variant_searcher(engine, method, t=20), Searcher), method

    @pytest.mark.parametrize("method", ["sfa", "spa", "tsa", "tsa-qc", "ais", "bruteforce"])
    def test_execution_stats_populated(self, method):
        # A cache-disabled engine: these assertions pin the *traversal*
        # counters (pops, cells opened), which a warm social column
        # legitimately zeroes out on the dense-scan fast path.
        graph, locations = random_instance(250, seed=11, coverage=0.8)
        engine = GeoSocialEngine(
            graph, locations, num_landmarks=3, s=4, seed=5, social_cache_bytes=0
        )
        user = next(iter(engine.locations.located_users()))
        result = engine.query(user, k=10, alpha=0.5, method=method)
        stats = result.stats
        assert stats.elapsed > 0.0
        assert stats.candidates_scored > 0, method
        assert stats.pops > 0, method
        if method in ("spa", "tsa", "tsa-qc", "ais"):
            assert stats.cells_opened > 0, method
        assert result.method == method

    def test_stats_merge_includes_new_counters(self):
        from repro.core.stats import SearchStats

        a = SearchStats(cells_opened=2, candidates_scored=5)
        a.merge(SearchStats(cells_opened=1, candidates_scored=3))
        assert (a.cells_opened, a.candidates_scored) == (3, 8)

    def test_resolved_method_recorded_on_result(self, engine):
        user = next(iter(engine.locations.located_users()))
        assert engine.query(user, 5, 0.0, "tsa").method == "bounded"
        assert engine.query(user, 5, 1.0, "ais").method == "sfa"
        auto = engine.query(user, 5, 0.5, AUTO)
        assert auto.method == "bounded"


def test_unknown_method_still_rejected_everywhere(engine):
    with pytest.raises(ValueError, match="unknown method"):
        engine.query(0, 5, 0.3, "nope")
    with pytest.raises(ValueError, match="unknown method"):
        engine.resolve_method(QueryRequest(0, 5, 0.3, "nope"))


def test_out_of_range_user_raises_value_error_through_auto(engine):
    """auto resolution must surface the engine's ValueError contract
    for bad user ids, never an IndexError from feature extraction —
    through the engine, the resolver, and the cached service path."""
    bad = engine.graph.n + 5
    with pytest.raises(ValueError, match="out of range"):
        engine.resolve_method(QueryRequest(bad, 5, 0.5, AUTO))
    with pytest.raises(ValueError, match="out of range"):
        engine.query(bad, 5, 0.5, AUTO)
    service = QueryService(engine, cache_size=8, max_workers=1)
    try:
        with pytest.raises(ValueError, match="out of range"):
            service.query(QueryRequest(user=bad, k=5, alpha=0.5, method=AUTO))
    finally:
        service.close()
