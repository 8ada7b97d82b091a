"""Unit tests for the adaptive planner stack: static rules, feature
extraction and bucketing, the cost model's coarse-to-fine fallback,
epsilon-greedy resolution with calibration, the unified ``Searcher``
execution-stats contract, and planner persistence across engine
rebuilds."""

from __future__ import annotations

import pytest

from repro.bench.variants import VARIANTS, variant_searcher
from repro.core.engine import AUTO, METHODS, FORWARD_DETERMINISTIC_METHODS, GeoSocialEngine
from repro.core.searcher import Searcher
from repro.plan import (
    DEFAULT_CANDIDATES,
    AdaptivePlanner,
    CostModel,
    QueryFeatures,
    extract_features,
    route_method,
    static_choice,
)
from repro.plan.features import local_cell_density
from repro.service import QueryRequest, QueryService
from repro.shard import ShardedGeoSocialEngine
from tests.conftest import random_instance


#: the default arms plus the two incremental searchers that were
#: defaults before PR 24 — what the multi-arm scripts below play over
OPT_IN_CANDIDATES = DEFAULT_CANDIDATES + ("spa", "tsa")


@pytest.fixture(scope="module")
def engine():
    graph, locations = random_instance(250, seed=11, coverage=0.8)
    return GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=5)


# -- rules -------------------------------------------------------------


class TestRules:
    def test_route_method_matches_legacy_tables(self):
        for method in METHODS:
            assert route_method(method, 0.4) == method
        assert route_method("tsa", 0.0) == "spa"
        assert route_method("approx", 0.0) == "spa"
        assert route_method("ais", 1.0) == "sfa"
        assert route_method("ais", 0.0) == "ais"
        assert route_method("bruteforce", 0.0) == "bruteforce"
        assert route_method("bruteforce", 1.0) == "bruteforce"

    def test_route_method_is_public_from_the_rule_layer_only(self):
        import repro
        import repro.core.engine as engine_module

        assert repro.route_method is route_method
        assert "route_method" not in engine_module.__all__

    def test_static_choice_endpoints_only(self):
        assert static_choice(0.0) == "spa"
        assert static_choice(1.0) == "sfa"
        assert static_choice(0.5) is None
        assert static_choice(1e-9) is None

    def test_default_candidates_are_forward_deterministic(self):
        """The default auto candidate set must stay inside the
        forward-deterministic families: that is what makes auto results
        bit-identical to bruteforce and auto subscriptions repairable."""
        assert DEFAULT_CANDIDATES == ("bounded", "bruteforce")
        assert set(DEFAULT_CANDIDATES) <= FORWARD_DETERMINISTIC_METHODS
        assert set(DEFAULT_CANDIDATES) <= set(METHODS)

    def test_tsa_qc_is_an_opt_in_candidate(self, engine):
        """The paper's incremental searchers are served, but off the
        planner's default set (the column arms beat each of them):
        naming one as a candidate still works and calibration probes
        it."""
        for method in ("tsa-qc", "sfa", "spa", "tsa"):
            assert method in METHODS and method not in DEFAULT_CANDIDATES
            planner = AdaptivePlanner(candidates=DEFAULT_CANDIDATES + (method,), seed=1)
            assert planner.calibrate(engine) == 4 * 3 * 2
            assert method in planner.cost.snapshot()["global"]


# -- features ----------------------------------------------------------


class TestFeatures:
    def test_bucket_is_small_and_stable(self):
        f = QueryFeatures(k=30, alpha=0.3, degree=12, cell_density=1.5)
        assert f.bucket() == (2, 1, 3, 1, 0, 0, 0)
        assert QueryFeatures(k=1, alpha=0.01, degree=0, cell_density=0.0).bucket() == (
            0,
            0,
            0,
            0,
            0,
            0,
            0,
        )
        # buckets saturate instead of growing unboundedly
        huge = QueryFeatures(
            k=10**6, alpha=0.99, degree=10**9, cell_density=1e9, fanout=10**3
        )
        assert huge.bucket() == (3, 3, 6, 3, 3, 0, 0)

    def test_social_hit_feature_separates_warm_from_cold_regime(self):
        """A cached full social column collapses forward-deterministic
        methods to one dense scan, so warm and cold executions of the
        same query must key different cost-model buckets."""
        base = QueryFeatures(k=30, alpha=0.3, degree=12, cell_density=1.5)
        warm = QueryFeatures(
            k=30, alpha=0.3, degree=12, cell_density=1.5, social_hit=True
        )
        assert base.bucket() != warm.bucket()
        assert base.bucket()[:6] == warm.bucket()[:6]

    def test_budget_feature_separates_exact_from_approx_regime(self):
        """budget occupies the last bucket slot; unset and 0 land in
        bucket 0 (the exact-required regime) so cost observations from
        exact-only traffic never leak into budgeted buckets."""
        base = QueryFeatures(k=30, alpha=0.3, degree=12, cell_density=1.5)
        zero = QueryFeatures(k=30, alpha=0.3, degree=12, cell_density=1.5, budget=0.0)
        budgeted = QueryFeatures(
            k=30, alpha=0.3, degree=12, cell_density=1.5, budget=0.05
        )
        assert base.bucket() == zero.bucket()
        assert budgeted.bucket() != base.bucket()
        assert budgeted.bucket()[:5] == base.bucket()[:5]

    def test_fanout_feature_separates_sharded_costs(self):
        """The same query features at different shard fan-outs must key
        different cost-model buckets — that is what lets auto learn
        scatter economics separately from single-engine economics."""
        base = QueryFeatures(k=30, alpha=0.3, degree=12, cell_density=1.5)
        sharded = QueryFeatures(
            k=30, alpha=0.3, degree=12, cell_density=1.5, fanout=4
        )
        assert base.bucket() != sharded.bucket()
        assert base.bucket()[:4] == sharded.bucket()[:4]

    def test_extract_features_single_engine(self, engine):
        user = next(iter(engine.locations.located_users()))
        f = extract_features(engine, QueryRequest(user, 10, 0.3))
        assert f.k == 10 and f.alpha == 0.3
        assert f.degree == engine.graph.degree(user)
        assert f.cell_density > 0.0

    def test_extract_features_unlocated_user_is_safe(self, engine):
        unlocated = [
            u for u in range(engine.graph.n) if not engine.locations.has_location(u)
        ]
        assert unlocated, "fixture should have partial coverage"
        f = extract_features(engine, QueryRequest(unlocated[0], 10, 0.3))
        assert f.cell_density == 0.0

    def test_cell_density_sharded_probes_owning_shard(self):
        graph, locations = random_instance(200, seed=3, coverage=0.9)
        sharded = ShardedGeoSocialEngine(
            graph, locations, n_shards=4, num_landmarks=3, s=4, seed=5, max_workers=1
        )
        single = GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=5)
        user = next(iter(locations.located_users()))
        assert local_cell_density(sharded, user) > 0.0
        assert local_cell_density(single, user) > 0.0


# -- cost model --------------------------------------------------------


class TestCostModel:
    def test_coarse_to_fine_fallback(self):
        model = CostModel()
        seen = (1, 2, 3, 0)
        model.observe(seen, "spa", 0.2)
        # exact bucket
        assert model.estimate(seen, "spa") == pytest.approx(0.2)
        # same alpha bucket, different everything else -> alpha marginal
        assert model.estimate((0, 2, 0, 3), "spa") == pytest.approx(0.2)
        # different alpha bucket -> global
        assert model.estimate((0, 0, 0, 0), "spa") == pytest.approx(0.2)
        # untouched method -> None (planner explores it)
        assert model.estimate(seen, "tsa") is None

    def test_no_estimate_crosses_regimes(self):
        """A cached column turns every forward method into one dense
        scan, a budget admits the sketch: the fallback levels are keyed
        on both, so a warm (or budgeted) observation can never price a
        method for a cold exact bucket — and the other way round."""
        model = CostModel(decay=1.0)
        cold = (2, 2, 4, 0, 0, 0, 0)
        model.observe(cold, "bounded", 0.040)
        model.observe(cold, "bruteforce", 0.003)
        warm = cold[:6] + (1,)
        budgeted = cold[:5] + (2, 0)
        for other in (warm, budgeted):
            assert model.estimate(other, "bounded") is None
            model.observe(other, "bounded", 0.0006)
        # a never-seen cold bucket reads the cold alpha-marginal and
        # global levels: 40 ms, whatever the warm regime observed since
        assert model.estimate((0, 2, 1, 3, 0, 0, 0), "bounded") == pytest.approx(0.040)
        assert model.estimate((0, 0, 1, 3, 0, 0, 0), "bounded") == pytest.approx(0.040)
        # ... and a never-seen warm bucket the warm ones
        assert model.estimate((0, 0, 1, 3, 0, 0, 1), "bounded") == pytest.approx(0.0006)
        assert model.estimate((0, 0, 1, 3, 0, 0, 1), "ais") is None
        snap = model.snapshot()
        assert set(snap["global"]) == {
            "bounded", "bruteforce", "column-scan@0,1", "bounded@2,0",
        }
        assert set(snap["alpha"]) == {
            "a2:bounded", "a2:bruteforce", "a2:column-scan@0,1", "a2:bounded@2,0",
        }

    def test_on_a_cached_column_the_forward_methods_are_one_arm(self, engine):
        """Warm, every forward method runs the same dense scan: one
        shared cell, so their estimates tie exactly (no noise to chase)
        and the planner names the tie after the full-column arm — the
        one whose cold answer the warm repeat can then hit in the
        result cache.  Non-forward arms keep their own cells."""
        model = CostModel(decay=1.0)
        warm = (0, 1, 2, 1, 0, 0, 1)
        model.observe(warm, "tsa", 0.0004)
        for method in ("spa", "tsa", "bounded", "bruteforce", "sfa"):
            assert model.estimate(warm, method) == 0.0004
        assert model.estimate(warm, "ais") is None
        model.observe(warm, "ais", 0.05)
        model.observe(warm, "spa", 0.0002)
        assert model.estimate(warm, "bruteforce") == 0.0002
        assert model.estimate(warm, "ais") == 0.05
        cold = warm[:6] + (0,)
        assert model.estimate(cold, "tsa") is None  # nothing leaks to the cold regime
        planner = AdaptivePlanner(calibrate=False, epsilon=0.0)
        planner.cost = model
        for _ in range(3):
            assert planner._choose_locked(warm) == ("bruteforce", False)
            planner.cost.observe(warm, "bruteforce", 0.0003)
        # without a full-column arm the tie goes to the first candidate
        assert planner._choose_locked(warm, ("tsa", "spa")) == ("tsa", False)

    def test_ewma_moves_toward_new_costs(self):
        model = CostModel(decay=0.5)
        b = (0, 1, 0, 0)
        model.observe(b, "sfa", 1.0)
        model.observe(b, "sfa", 0.0)
        assert model.estimate(b, "sfa") == pytest.approx(0.5)
        assert model.observations(b) == 2

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            CostModel(decay=0.0)
        with pytest.raises(ValueError):
            CostModel(decay=1.5)

    def test_zero_cost_observation_is_floored(self):
        """Satellite regression: a coarse clock can hand the model an
        elapsed time of exactly 0.0; stored raw, that arm's estimate
        would be an unbeatable min() forever.  The observation is
        floored to a tiny positive cost the EWMA can move off of."""
        model = CostModel(decay=0.5)
        b = (0, 1, 0, 0, 0, 0)
        model.observe(b, "spa", 0.0)
        floored = model.estimate(b, "spa")
        assert floored is not None and floored > 0.0
        model.observe(b, "spa", 0.4)
        assert model.estimate(b, "spa") == pytest.approx(0.2, rel=1e-6)


# -- planner -----------------------------------------------------------


class TestPlanner:
    def test_explicit_methods_pass_through(self, engine):
        planner = AdaptivePlanner(calibrate=False)
        decision = planner.resolve(engine, QueryRequest(0, 10, 0.3, "tsa"))
        assert decision.method == "tsa" and not decision.auto
        decision = planner.resolve(engine, QueryRequest(0, 10, 0.0, "tsa"))
        assert decision.method == "spa" and not decision.auto

    def test_static_endpoint_resolutions(self, engine):
        planner = AdaptivePlanner(calibrate=False)
        assert planner.resolve(engine, QueryRequest(0, 10, 0.0, AUTO)).method == "spa"
        assert planner.resolve(engine, QueryRequest(0, 10, 1.0, AUTO)).method == "sfa"
        assert planner.stats.static_routes == 2

    def test_greedy_picks_cheapest_learned_method(self, engine):
        planner = AdaptivePlanner(candidates=OPT_IN_CANDIDATES, calibrate=False, epsilon=0.0)
        user = next(iter(engine.locations.located_users()))
        bucket = extract_features(engine, QueryRequest(user, 10, 0.5)).bucket()
        for method, cost in (("bounded", 0.9), ("spa", 0.1), ("tsa", 0.5), ("bruteforce", 0.7)):
            planner.cost.observe(bucket, method, cost)
        decision = planner.resolve(engine, QueryRequest(user, 10, 0.5, AUTO))
        assert decision.method == "spa" and decision.auto and not decision.explored
        assert decision.bucket == bucket

    def test_unexplored_candidates_go_first(self, engine):
        planner = AdaptivePlanner(calibrate=False, epsilon=0.0)
        user = next(iter(engine.locations.located_users()))
        resolved = set()
        for _ in range(len(DEFAULT_CANDIDATES)):
            decision = planner.resolve(engine, QueryRequest(user, 10, 0.5, AUTO))
            assert decision.explored
            resolved.add(decision.method)
            planner.observe(decision, 0.5)
        assert resolved == set(DEFAULT_CANDIDATES)

    def test_observe_ignores_static_and_explicit(self, engine):
        planner = AdaptivePlanner(calibrate=False)
        planner.observe(planner.resolve(engine, QueryRequest(0, 10, 0.0, AUTO)), 1.0)
        planner.observe(planner.resolve(engine, QueryRequest(0, 10, 0.3, "tsa")), 1.0)
        assert planner.stats.observations == 0

    def test_calibration_seeds_every_candidate(self, engine):
        planner = AdaptivePlanner(seed=1)
        executed = planner.calibrate(engine)
        assert executed > 0
        assert planner.calibrate(engine) == 0  # idempotent
        snapshot = planner.cost.snapshot()
        assert set(snapshot["global"]) == set(DEFAULT_CANDIDATES)
        # every interior alpha bucket has every candidate seeded
        alphas = {key.split(":")[0] for key in snapshot["alpha"]}
        assert alphas == {"a0", "a1", "a2", "a3"}

    def test_auto_query_feeds_feedback_loop(self, engine):
        engine.planner = AdaptivePlanner(seed=2)
        before = engine.planner.stats.observations
        result = engine.query(1, k=5, alpha=0.5, method=AUTO)
        assert result.method in DEFAULT_CANDIDATES
        assert engine.planner.stats.observations == before + 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdaptivePlanner(candidates=())
        with pytest.raises(ValueError):
            AdaptivePlanner(epsilon=1.5)
        with pytest.raises(ValueError, match="exact"):
            AdaptivePlanner(candidates=("approx",))

    def test_misnamed_candidate_is_refused_at_construction(self, engine):
        """A candidate that is not a row of the method table used to
        construct, lose its calibration probes silently, and then fail
        every ``auto`` query with the client-blaming ``unknown method``."""
        with pytest.raises(ValueError, match="unknown planner candidate 'tsa_qc'"):
            AdaptivePlanner(candidates=("sfa", "tsa_qc"))
        with pytest.raises(ValueError, match="unknown planner candidate 'auto'"):
            AdaptivePlanner(candidates=("sfa", AUTO))

    def test_probe_swallows_only_the_unlocated_user_error(self, engine):
        """A calibration probe may lose its user's location to a
        concurrent forget; any other ``ValueError`` is a bug and must
        surface, not shrink the probe count."""
        planner = AdaptivePlanner(seed=1)
        unlocated = next(
            u for u in range(engine.graph.n) if engine.locations.get(u) is None
        )
        assert planner._probe(engine, unlocated, 0.5, "spa", None) == 0
        located = next(iter(engine.locations.located_users()))
        with pytest.raises(ValueError, match="unknown method"):
            planner._probe(engine, located, 0.5, "tsa_qc", None)

    def test_each_calibration_probe_pays_its_own_traversal(self, engine):
        """A ``bruteforce`` probe leaves the probe user's full column in
        the cache; the ``sfa`` probe after it on the same user must
        still run the searcher (and be priced as a cold query), not
        time a dense scan of that column."""
        planner = AdaptivePlanner(seed=1)
        user = next(iter(engine.locations.located_users()))
        searches = []
        sfa = engine.searcher("sfa")
        original = sfa.search

        def counting_search(*args, **kwargs):
            searches.append(args)
            return original(*args, **kwargs)

        sfa.search = counting_search
        try:
            assert planner._probe(engine, user, 0.5, "bruteforce", None) == 1
            assert engine.social_cache.contains_full(user)
            assert planner._probe(engine, user, 0.5, "sfa", None) == 1
        finally:
            del sfa.search
        assert len(searches) == 1
        # both observations are keyed cold (social_hit == 0), the state
        # each probe ran in — not the warm state it left behind
        cold = extract_features(engine, QueryRequest(user, 10, 0.5)).bucket()[:6] + (0,)
        buckets = planner.cost.snapshot()["buckets"]
        assert {f"{cold}:bruteforce", f"{cold}:sfa"} <= set(buckets)

    def test_exploratory_draw_is_accepted_in_proportion_to_its_price(self, engine):
        """Two arms, 10x apart: an exploratory draw of the dear arm is
        played with probability best/estimate = 0.1, so over many
        forced explorations it runs about a tenth as often as a uniform
        draw would run it — and a draw of the cheap arm always plays."""
        planner = AdaptivePlanner(
            candidates=("spa", "sfa"), calibrate=False, epsilon=1.0, decay=1.0, seed=4
        )
        bucket = (0, 1, 2, 1, 0, 0, 0)
        draws = 4000
        dear = explored = 0
        for _ in range(draws):
            # the model is reset each round so the rate stays at
            # epsilon / sqrt(1 + 2): only the acceptance rule varies
            planner.cost = CostModel(1.0)
            planner.cost.observe(bucket, "spa", 0.003)
            planner.cost.observe(bucket, "sfa", 0.030)
            method, was_explored = planner._choose_locked(bucket, planner.candidates)
            explored += was_explored
            dear += method == "sfa"
            assert was_explored or method == "spa"  # greedy play is the cheap arm
        rate = 1.0 / 3.0 ** 0.5
        # uniform draws would play the dear arm rate/2 of the time;
        # priced draws play it a tenth of that
        assert dear / draws == pytest.approx(rate / 2 * 0.1, rel=0.25)
        assert dear / draws < 0.25 * (rate / 2)
        # the cheap arm's draws are always accepted (best/best == 1)
        assert (explored - dear) / draws == pytest.approx(rate / 2, rel=0.15)

    def test_priced_exploration_reads_the_cold_price_of_a_cold_bucket(self, engine):
        """The regression behind ``sfa GREEDY cost 41.7 ms, estimates
        {sfa 0.77}``: warm traffic made a dear arm look cheap for a
        never-seen cold bucket.  With regime-keyed fallbacks the cold
        bucket's greedy pick is the cold-cheapest arm, and an
        exploratory draw of the dear arm is accepted at its cold
        ``best/estimate``, not at the warm one."""
        planner = AdaptivePlanner(
            candidates=("bruteforce", "bounded"), calibrate=False, epsilon=1.0,
            decay=1.0, seed=4,
        )
        seen_cold = (0, 1, 2, 1, 0, 0, 0)
        seen_warm = seen_cold[:6] + (1,)
        fresh_cold = (1, 1, 5, 3, 0, 0, 0)  # same alpha bucket, never observed
        draws = 3000
        dear = 0
        for _ in range(draws):
            planner.cost = CostModel(1.0)
            planner.cost.observe(seen_cold, "bruteforce", 0.003)
            planner.cost.observe(seen_cold, "bounded", 0.030)
            for _ in range(5):  # warm hits: every forward arm is one scan
                planner.cost.observe(seen_warm, "bounded", 0.0006)
            assert planner.cost.estimate(fresh_cold, "bounded") == pytest.approx(0.030)
            method, explored = planner._choose_locked(fresh_cold, planner.candidates)
            assert explored or method == "bruteforce"
            dear += method == "bounded"
        # rate = 1 (no observation of this bucket yet); half the draws
        # land on the dear arm and a tenth of those are accepted
        assert dear / draws == pytest.approx(0.5 * 0.1, rel=0.3)

    def test_cold_bucket_zero_cost_neither_starves_nor_freezes(self, engine):
        """Satellite regression, planner level: one 0.0-elapsed
        observation must not rob the never-observed candidates of their
        exploration turn, and once the arm's real cost arrives the
        floored artifact does not keep winning min()."""
        planner = AdaptivePlanner(candidates=OPT_IN_CANDIDATES, calibrate=False, epsilon=0.0)
        user = next(iter(engine.locations.located_users()))
        bucket = extract_features(engine, QueryRequest(user, 10, 0.5)).bucket()
        planner.cost.observe(bucket, "tsa", 0.0)  # coarse-clock artifact
        resolved = set()
        for _ in range(len(OPT_IN_CANDIDATES) - 1):
            decision = planner.resolve(engine, QueryRequest(user, 10, 0.5, AUTO))
            assert decision.explored, "unexplored arms must still go first"
            resolved.add(decision.method)
            planner.observe(decision, 0.5)
        assert resolved == set(OPT_IN_CANDIDATES) - {"tsa"}
        # greedy now picks the floored arm (cheapest estimate on record)
        decision = planner.resolve(engine, QueryRequest(user, 10, 0.5, AUTO))
        assert decision.method == "tsa" and not decision.explored
        # ... but its real cost moves the EWMA off the floor: the
        # artifact does not freeze the arm as an eternal 0.0 winner
        planner.observe(decision, 2.0)
        decision = planner.resolve(engine, QueryRequest(user, 10, 0.5, AUTO))
        assert decision.method != "tsa"

    def test_cost_tie_breaks_toward_canonical_candidate_order(self, engine):
        """An exact cost tie resolves deterministically: to the
        full-column arm when it is a candidate (ties are what a cached
        column produces, and that arm's cold answers are what the warm
        repeats should hit), else to the earliest candidate in
        canonical order — pinned."""
        user = next(iter(engine.locations.located_users()))
        bucket = extract_features(engine, QueryRequest(user, 10, 0.5)).bucket()
        for candidates, winner in (
            (DEFAULT_CANDIDATES, "bruteforce"),
            (("spa", "tsa", "bounded"), "spa"),
        ):
            planner = AdaptivePlanner(candidates=candidates, calibrate=False, epsilon=0.0)
            for method in candidates:
                planner.cost.observe(bucket, method, 0.5)
            decision = planner.resolve(engine, QueryRequest(user, 10, 0.5, AUTO))
            assert decision.method == winner
            assert not decision.explored

    def test_budget_gates_approx_into_the_candidate_set(self, engine):
        """Exact-required resolutions (budget unset/0) never see
        ``approx``; a budgeted resolution the sketch certifies adds it
        (explored first like any cold arm, then greedily winnable)."""
        planner = AdaptivePlanner(calibrate=False, epsilon=0.0)
        user = next(iter(engine.locations.located_users()))
        bucket = extract_features(engine, QueryRequest(user, 10, 0.5, budget=1.0)).bucket()
        for method in DEFAULT_CANDIDATES:
            planner.cost.observe(bucket, method, 0.5)
        # generous budget: the sketch certifies it; approx is the one
        # cold arm left and gets its exploration turn
        decision = planner.resolve(engine, QueryRequest(user, 10, 0.5, AUTO, budget=1.0))
        assert decision.method == "approx" and decision.explored
        planner.observe(decision, 0.01)
        decision = planner.resolve(engine, QueryRequest(user, 10, 0.5, AUTO, budget=1.0))
        assert decision.method == "approx" and not decision.explored
        # the exact-required form of the same query never resolves to it
        for budget in (None, 0.0):
            decision = planner.resolve(engine, QueryRequest(user, 10, 0.5, AUTO, budget=budget))
            assert decision.method in DEFAULT_CANDIDATES

    def test_inadmissible_budget_strips_approx(self, engine):
        """A positive budget smaller than the sketch's empirical error
        estimate keeps the resolution exact-only."""
        sketch = engine.sketch
        w_social = 0.5 / engine.normalization.p_max
        tiny = w_social * sketch.empirical_half / 2.0
        assert not sketch.admissible(w_social, tiny)
        planner = AdaptivePlanner(calibrate=False, epsilon=0.0)
        user = next(iter(engine.locations.located_users()))
        for _ in range(len(DEFAULT_CANDIDATES) + 2):
            decision = planner.resolve(engine, QueryRequest(user, 10, 0.5, AUTO, budget=tiny))
            assert decision.method in DEFAULT_CANDIDATES
            planner.observe(decision, 0.5)

    def test_exploration_rate_decays_with_evidence(self, engine):
        """After many observations in a bucket, exploration is rare:
        the effective rate is epsilon / sqrt(1 + observations)."""
        planner = AdaptivePlanner(calibrate=False, epsilon=1.0, seed=0)
        user = next(iter(engine.locations.located_users()))
        bucket = extract_features(engine, QueryRequest(user, 10, 0.5)).bucket()
        for method in DEFAULT_CANDIDATES:
            planner.cost.observe(bucket, method, 0.5)
        for _ in range(400):
            planner.cost.observe(bucket, "spa", 0.1)
        explored = sum(
            planner.resolve(engine, QueryRequest(user, 10, 0.5, AUTO)).explored for _ in range(100)
        )
        assert explored < 30  # epsilon/sqrt(405) ~ 5% despite epsilon=1.0

    def test_planner_survives_with_graph_rebuild(self, engine):
        engine.planner = AdaptivePlanner(seed=3)
        rebuilt = engine.with_graph(engine.graph)
        assert rebuilt._planner is engine.planner

    def test_service_rebuild_engine_keeps_learned_costs(self):
        graph, locations = random_instance(120, seed=7, coverage=0.9)
        engine = GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=5)
        service = QueryService(engine, cache_size=16)
        try:
            service.query(QueryRequest(user=0, k=5, alpha=0.5, method=AUTO))
            planner = engine.planner
            observed = planner.stats.observations
            assert observed > 0
            service.update_edge(0, 1, 0.7)
            new_engine = service.rebuild_engine()
            assert new_engine.planner is planner
            service.query(QueryRequest(user=0, k=5, alpha=0.5, method=AUTO))
            assert planner.stats.observations > observed
        finally:
            service.close()


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
        assert engine.query(user, 5, 0.0, "tsa").method == "spa"
        assert engine.query(user, 5, 1.0, "ais").method == "sfa"
        auto = engine.query(user, 5, 0.5, AUTO)
        assert auto.method in DEFAULT_CANDIDATES


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
