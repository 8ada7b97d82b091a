"""The cost-based adaptive query planner behind ``method="auto"``.

The ICDE-2016 evaluation shows no processing method dominates: the
winner flips with ``k``, ``alpha``, the query user's degree, and the
dataset's nature (Figures 7–10, reproduced by this repo's benches).
Since PR 2 made every method return bit-identical rankings, *method
selection is a pure performance decision* — exactly the setting for a
cost-based planner with online feedback.

Resolution layers, cheapest first:

1. **static rules** (:mod:`repro.plan.rules`) — the endpoint
   degenerations every dispatch path already applied (``alpha == 0`` →
   SPA, ``alpha == 1`` → SFA) now live here;
2. **per-query features** (:mod:`repro.plan.features`) — ``k``,
   ``alpha``, the query user's social degree, and the index cell
   density at their location, discretized into a small bucket;
3. **online feedback** (:mod:`repro.plan.cost`) — per-bucket running
   cost estimates updated from every executed ``auto`` query's
   measured wall time, seeded by a one-time calibration pass and
   explored epsilon-greedily (the rate decays per bucket as evidence
   accumulates, so steady-state traffic pays almost no exploration
   tax).

**Exactness.**  Every candidate method implements Definition 1 with the
shared deterministic tie-break (smaller id wins), so whatever the
planner picks, the returned ranking is identical — the differential
suite (``tests/test_plan_equivalence.py``) pins ``auto`` ≡
``bruteforce`` bit-for-bit, ids *and* scores.  The default candidate
set is restricted to the forward-deterministic families
(:data:`DEFAULT_CANDIDATES` ⊆
:data:`repro.core.engine.FORWARD_DETERMINISTIC_METHODS`), so resolved
``auto`` queries also stay repairable in the service cache and the
stream registry, and their stored scores are schedule-independent.
Pass ``candidates=(..., "ais")`` to trade that bit-exactness guarantee
(AIS scores are schedule-dependent up to 1 ulp; rankings stay
identical) for AIS's raw speed on huge instances.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.request import QueryRequest
from repro.plan.cost import CostModel
from repro.plan.features import FeatureBucket, extract_features
from repro.plan.rules import AUTO, METHOD_TABLE, route_method, static_choice

_TINY = 1e-300  # matches repro.core.ranking's division guard

#: the arms the planner picks among by default — the two that run on
#: the ``sssp_column`` kernel (social ball + dense scan, full column +
#: dense scan).  The paper's incremental searchers (``sfa``, ``spa``,
#: ``tsa``, ``tsa-qc``) are opt-in: ``candidates=DEFAULT_CANDIDATES +
#: ("tsa",)`` adds one, and calibration then pays to time it
DEFAULT_CANDIDATES = tuple(name for name, spec in METHOD_TABLE.items() if spec.candidate)

#: (k, alpha) probe grid of the calibration pass — one alpha per
#: interior alpha bucket, so the alpha-marginal cost level starts
#: populated across the whole crossover axis
CALIBRATION_ALPHAS = (0.125, 0.375, 0.625, 0.875)
CALIBRATION_K = 10


@dataclass(frozen=True)
class PlanDecision:
    """One method resolution: what runs, and why.

        >>> from repro.plan import PlanDecision
        >>> PlanDecision(method="spa", requested="auto", bucket=None, auto=True).method
        'spa'
    """

    #: the concrete method to execute
    method: str
    #: the method the caller asked for (``"auto"`` or a concrete name)
    requested: str
    #: the feature bucket consulted (``None`` for static resolutions)
    bucket: FeatureBucket | None
    #: whether the adaptive planner was consulted at all
    auto: bool
    #: whether this resolution was an epsilon-greedy exploration
    explored: bool = False


@dataclass
class PlannerStats:
    """Lifetime counters of one :class:`AdaptivePlanner`.

        >>> from repro.plan import PlannerStats
        >>> stats = PlannerStats(auto_resolutions=4, explorations=1)
        >>> stats.snapshot()["explorations"]
        1
    """

    #: ``auto`` requests resolved (static endpoint routes included)
    auto_resolutions: int = 0
    #: ``auto`` requests resolved by the endpoint rules alone
    static_routes: int = 0
    #: epsilon-greedy explorations among the auto resolutions
    explorations: int = 0
    #: cost observations folded into the model
    observations: int = 0
    #: queries spent by the calibration pass
    calibration_queries: int = 0
    #: resolved-method counts over auto requests
    per_method: dict = field(default_factory=dict)

    def snapshot(self) -> dict:
        return {
            "auto_resolutions": self.auto_resolutions,
            "static_routes": self.static_routes,
            "explorations": self.explorations,
            "observations": self.observations,
            "calibration_queries": self.calibration_queries,
            "per_method": dict(self.per_method),
        }


class AdaptivePlanner:
    """Resolves ``method="auto"`` per query and learns from feedback.

        >>> from repro import GeoSocialEngine, gowalla_like
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
        >>> result = engine.query(user=8, k=5, alpha=0.3, method="auto")
        >>> result.method in engine.planner.candidates
        True
        >>> result.users == engine.query(8, 5, 0.3, method="bruteforce").users
        True

    Parameters
    ----------
    candidates:
        Concrete methods ``auto`` may resolve to in the interior of the
        alpha range (see the module docstring for why the default set
        is forward-deterministic).
    epsilon:
        Base exploration rate; the effective rate for a bucket decays
        as ``epsilon / sqrt(1 + observations(bucket))``.
    decay:
        EWMA step of the underlying :class:`~repro.plan.cost.CostModel`.
    seed:
        Exploration RNG seed (engines seed it from their own ``seed``,
        so a rebuilt engine explores reproducibly).
    calibrate:
        Run the one-time calibration pass lazily before the first
        cost-based resolution (pass ``False`` to start cold and learn
        from live traffic only).
    calibration_users:
        Probe users per (method, alpha) calibration point.
    """

    def __init__(
        self,
        *,
        candidates: tuple = DEFAULT_CANDIDATES,
        epsilon: float = 0.05,
        decay: float = 0.25,
        seed: int = 0,
        calibrate: bool = True,
        calibration_users: int = 2,
    ) -> None:
        if not candidates:
            raise ValueError("need at least one candidate method")
        for name in candidates:
            if name not in METHOD_TABLE:
                raise ValueError(
                    f"unknown planner candidate {name!r}; choose from {tuple(METHOD_TABLE)}"
                )
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.candidates = tuple(candidates)
        # Exact-required buckets (budget unset/0) must always have a
        # deterministic method to fall back on — "approx" alone is not
        # a valid candidate set.
        self._exact_candidates = tuple(m for m in self.candidates if m != "approx")
        if not self._exact_candidates:
            raise ValueError("need at least one exact (non-approx) candidate method")
        self.epsilon = epsilon
        self.cost = CostModel(decay)
        self.stats = PlannerStats()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._auto_calibrate = calibrate
        self._calibration_users = calibration_users
        self._calibrated = not calibrate

    # -- resolution ----------------------------------------------------

    def resolve(self, engine, request: "QueryRequest") -> PlanDecision:
        """The concrete method to execute for one query.

        Explicit methods only pass through the static endpoint routing;
        ``auto`` consults the rule layer, then the cost model.  An
        exact-required request (``budget`` unset or ``0``) only ever
        resolves to the exact candidate set; a budgeted request may
        additionally resolve to ``"approx"`` when the engine's sketch
        certifies the budget for this query's social weight
        (:meth:`repro.sketch.SketchIndex.admissible`).
        """
        user, alpha, method = request.user, request.alpha, request.method
        if method != AUTO:
            return PlanDecision(
                method=route_method(method, alpha),
                requested=method,
                bucket=None,
                auto=False,
            )
        static = static_choice(alpha)
        if static is None and engine.locations.get(user) is None:
            # Unlocated query user at interior alpha: every
            # spatial-capable searcher raises the fresh-query contract
            # error ("no known location").  Resolve to SPA
            # deterministically so auto raises it stably too — the
            # stream layer's suspension logic depends on that — instead
            # of flapping between raising and not with exploration.
            static = "spa"
        if static is not None:
            with self._lock:
                self.stats.auto_resolutions += 1
                self.stats.static_routes += 1
                self._count(static)
            return PlanDecision(method=static, requested=AUTO, bucket=None, auto=True)
        if not self._calibrated:
            self.calibrate(engine)
        candidates = self._candidates_for(engine, alpha, request.budget)
        bucket = extract_features(engine, request).bucket()
        with self._lock:
            chosen, explored = self._choose_locked(bucket, candidates)
            self.stats.auto_resolutions += 1
            if explored:
                self.stats.explorations += 1
            self._count(chosen)
        return PlanDecision(
            method=chosen, requested=AUTO, bucket=bucket, auto=True, explored=explored
        )

    def _count(self, method: str) -> None:
        self.stats.per_method[method] = self.stats.per_method.get(method, 0) + 1

    def _candidates_for(self, engine, alpha: float, budget: float | None) -> tuple:
        """The candidate set for one interior-alpha resolution: the
        exact methods always; ``"approx"`` additionally iff the query
        carries a positive budget the engine's sketch certifies for
        this alpha's social weight."""
        if budget is None or budget <= 0.0:
            return self._exact_candidates
        sketch = getattr(engine, "sketch", None)
        if sketch is None:
            return self._exact_candidates
        w_social = alpha / max(engine.normalization.p_max, _TINY)
        if not sketch.admissible(w_social, budget):
            return self._exact_candidates
        if "approx" in self.candidates:
            return self.candidates
        return self._exact_candidates + ("approx",)

    def _choose_locked(
        self, bucket: FeatureBucket, candidates: "tuple | None" = None
    ) -> tuple[str, bool]:
        if candidates is None:
            candidates = self._exact_candidates
        estimates = [(m, self.cost.estimate(bucket, m)) for m in candidates]
        unexplored = [m for m, est in estimates if est is None]
        if unexplored:
            # A never-observed candidate always goes first (canonical
            # order keeps this deterministic) so estimates exist for
            # every arm before greedy play starts.
            return unexplored[0], True
        # Exact ties only arise on a cached column, where the forward
        # arms are one cell of the cost model: name the tie after the
        # arm that builds full columns, so its cold answer and the warm
        # repeats share one result-cache line.
        best_method, best = min(
            estimates, key=lambda pair: (pair[1], METHOD_TABLE[pair[0]].column != "exhaust")
        )
        rate = self.epsilon / (1.0 + self.cost.observations(bucket)) ** 0.5
        if rate > 0.0 and self._rng.random() < rate:
            # Exploration priced by what it costs: a drawn arm is
            # played with probability best/estimate, so an arm's
            # expected exploration tax is at most ``rate · best``
            # however dear the arm is (a 50 ms arm beside a 3 ms one is
            # tried 6 % as often as uniform draws would try it).
            method, estimate = estimates[self._rng.randrange(len(estimates))]
            if self._rng.random() * estimate <= best:
                return method, True
        return best_method, False

    # -- feedback ------------------------------------------------------

    def observe(self, decision: PlanDecision, cost: float) -> None:
        """Fold one executed query's measured cost (wall seconds) back
        into the model.  No-op for static and explicit resolutions —
        only cost-based decisions carry a feature bucket."""
        if not decision.auto or decision.bucket is None:
            return
        self.cost.observe(decision.bucket, decision.method, cost)
        with self._lock:
            self.stats.observations += 1

    # -- calibration ---------------------------------------------------

    @property
    def calibrated(self) -> bool:
        """Whether the one-time calibration pass has run (or was
        disabled at construction)."""
        return self._calibrated

    def calibrate(self, engine, users: "list[int] | None" = None, read_lock=None) -> int:
        """Seed the cost model: run every candidate over a small probe
        grid of located users × calibration alphas, timing each query.

        Every probe pays its own traversal: the probe user's entry is
        dropped from the engine's social column cache first, or the
        first probe that exhausted the user's expansion would turn
        every later probe of that user into a dense scan of the cached
        column — timing the cache, not the method.

        Idempotent (the first caller wins; later calls are no-ops), and
        safe to call eagerly — benchmarks do, so measured serving
        windows exclude the one-time seeding cost.  ``read_lock``, when
        given, is a context-manager factory (e.g.
        ``engine.rw_lock.read_locked``) taken around *each individual
        probe*: callers serving live traffic pre-calibrate this way so
        a pending update stalls for one probe, not the whole pass —
        never call with a lock the calling thread already holds.
        Returns the number of probe queries executed.
        """
        with self._lock:
            if self._calibrated:
                return 0
            # Mark first: the probe queries below go through
            # ``engine.query`` with concrete methods, which never
            # re-enters resolution, but a concurrent auto query must
            # not start a second pass.
            self._calibrated = True
        if users is None:
            located = list(engine.locations.located_users())
            rng = random.Random(len(located))
            rng.shuffle(located)
            users = located[: self._calibration_users]
        # One untimed query per candidate first: it builds the searcher
        # and whatever that derives lazily from the graph (``bounded``'s
        # distance profile is three columns), so the timed probes below
        # price the method, not its one-off set-up.
        for user in users[:1]:
            for method in self.candidates:
                self._probe(engine, user, CALIBRATION_ALPHAS[0], method, read_lock, timed=False)
        executed = 0
        for alpha in CALIBRATION_ALPHAS:
            for method in self.candidates:
                for user in users:
                    executed += self._probe(engine, user, alpha, method, read_lock)
        with self._lock:
            self.stats.calibration_queries += executed
        return executed

    def _probe(
        self, engine, user: int, alpha: float, method: str, read_lock, timed: bool = True
    ) -> int:
        """One calibration query (optionally under its own read lock),
        its wall time folded into the model when ``timed``; returns 1
        if it executed, 0 if the probe user's location was forgotten
        concurrently (any other error is a bug: raise)."""
        guard = read_lock() if read_lock is not None else nullcontext()
        with guard:
            probe = QueryRequest(user, CALIBRATION_K, alpha, method)
            if engine.social_cache is not None:
                engine.social_cache.discard(user)
            # the bucket of the (cold) state the probe runs in, as
            # ``resolve`` extracts it before a live query
            bucket = extract_features(engine, probe).bucket()
            start = time.perf_counter()
            try:
                engine.query(probe)
            except ValueError as err:
                if "no known location" not in str(err):
                    raise
                return 0
            elapsed = time.perf_counter() - start
        if timed:
            self.cost.observe(bucket, method, elapsed)
        return 1

    # -- introspection -------------------------------------------------

    def snapshot(self) -> dict:
        """Planner counters plus the cost model's current estimates."""
        snap = self.stats.snapshot()
        snap["candidates"] = list(self.candidates)
        snap["epsilon"] = self.epsilon
        snap["cost"] = self.cost.snapshot()
        return snap

    def __repr__(self) -> str:
        return (
            f"AdaptivePlanner(candidates={list(self.candidates)}, "
            f"epsilon={self.epsilon}, resolved={self.stats.auto_resolutions}, "
            f"observed={self.stats.observations})"
        )
