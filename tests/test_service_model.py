"""The serving stack against the Definition 1 model, one step at a time.

A Hypothesis ``RuleBasedStateMachine`` drives one
:class:`~repro.service.QueryService`, a
:class:`~repro.stream.SubscriptionRegistry` over it and a
:class:`tests.model.Model` through the same interleaving of

- **query** and **batch** (``query_many`` over one user, a repeat
  included): every served method plus ``auto``; ``α`` = 0, 1 or an
  interior value; ``k`` from 1 to past ``n``;
- **move** (a burst of one to three, each maybe followed by a registry
  ``flush``): lattice points (co-located users, equal distances), the
  unit square, and hostile values: the input domain's bound ``±2**500``
  and subnormals, which a move accepts, and one ulp past the bound,
  which it refuses with a ``ValueError`` naming the field, changing
  nothing;
- **forget** a location;
- **edge update**: insert, re-weight or delete (deleting an absent edge
  is a ``KeyError`` in both) on any pair, recorded and not yet served;
- **rebuild_engine**, which folds the recorded updates in;
- **subscribe** (every served method plus ``auto``), **unsubscribe**
  and **flush**;
- **snapshot**, through a ``SnapshotManager`` (which folds recorded
  edge updates first) or ``save_engine``, and **restore** of the latest
  one, through the manager or ``load_engine(mmap=True)`` +
  ``replace_engine`` (recorded updates are discarded; the same snapshot
  may be restored again after the restored engine moved users);

and one rule per path a floor counts, each gated by a precondition
that holds whenever the state allows the path:

- **fresh_bounded**: ``bounded`` from a located user with no cached
  column, which takes its first ball at ``k ≤ 3`` on a large table and
  skips it on a small one or at ``k`` past ``n``;
- **nearest**: ``auto`` at ``α = 0`` after a move, after a forget and
  after moves past the k-d tree's rebuild bound, which it answers by
  merging the tree's dirty users or by rebuilding the tree;
- **resume**: a suspended subscription's query user returns;
- **reweight** and **delete** of a served edge (named in either
  orientation), then a fold by ``rebuild_engine`` or a folding
  snapshot;
- **renormalise**: with a normaliser of 0, a move to the bound, a
  recorded edge and a fold, which re-estimates it.

The machine runs once per build **stratum** (:data:`STRATA`).  A
stratum fixes the table kind (2–12 users drawn element by element:
both normalisers positive, edgeless so that ``P_max = 0``, every
located user on one position so that ``D_max = 0``, or both; or 40–150
users from a seed on a ring, where ``bounded`` takes its first ball),
the result-cache size (0, 1 or 64) and the column cache budget (none,
one column or the default); the build draws the rest, and asserts the
stratum's zero normalisers.  Every example opens with one call of each
counted rule, these gated ones included (:meth:`ServiceModel.opening`),
so Hypothesis's choice of rules decides how often a path is taken
again, never whether it is taken at all: its runs start from the
all-simplest example, follow each fresh example with mutated copies
of it, and switch each rule off for whole examples (swarm testing), so
a stratum's few examples would leave a gated rule to chance.

Every answer equals the model's: ids and tie-breaks exact, scores
bit-equal (``ais`` sums its bounds in another order: within 1e-9,
relative above a score of 1) and finite for every table, a zero
normaliser's included (the model asserts that a score is infinite only
where a distance it uses is); a
query user without a location below ``α = 1`` raises the same
``ValueError`` in both.  After every rebuild the served edges and
normalisers are the model's, and the column cache is empty.  After
every step:

- every live subscription's ``registry.result(sub)`` is the model's
  answer, and after an update the six most recent requests, asked
  again through the result cache, are too;
- the served engine's column cache has the stratum's budget and holds
  only full columns: each entry is its user's dense column, equal to
  the model's, and ``bytes_used == len(cache) · 8n``.

On every location update the result cache evicts every entry below
``α = 1`` and keeps each ``α = 1`` entry as the same object, and the
registry leaves a NO-OP subscription as it was, queues a repairable
REPAIR and marks the rest for recompute (the verdicts are
:meth:`~repro.stream.Subscription.classify`'s).  A forget of an unlocated user is
no update and touches neither, and neither does an edge update.  Small
tables and few distinct weights and coordinates keep repeats, ties and
cache hits frequent.

Each stratum runs seeded from a hash of the stratum and of the
machine's source, so any edit to :class:`ServiceModel` re-rolls it,
and, smaller, under each of the fixed :data:`SEEDS` (the re-roll
check).  Runs use a registered profile that skips Hypothesis's shrink
phase, so a failure reports in seconds; :func:`run` replays one
stratum and seed with the shrink phase back on.
:func:`test_service_model` asserts, for each stratum and seed, that
every example reached every rule and path :func:`floors` names.  The pins
at the end check what one model run cannot: a scripted planner, a
patched pending limit, subscribe-time validation, an ``α = 1``
subscription no move may touch, the open-slot forget the result
cache and the registry once treated differently, and the registry's
suspended count while a subscription is suspended and resumes.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import random
import re
import shutil
import tempfile
import warnings
from collections import Counter, namedtuple
from functools import cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.engine import AUTO, METHODS, GeoSocialEngine
from repro.core.ranking import Normalization, RankingFunction
from repro.core.result import Neighbor, SSRQResult
from repro.graph.socialgraph import SocialGraph
from repro.service import QueryRequest, QueryService, ResultCache
from repro.social import DEFAULT_SOCIAL_CACHE_BYTES
from repro.spatial.point import LocationTable
from repro.store import load_engine, save_engine
from repro.plan.rules import FORWARD_DETERMINISTIC_METHODS
from repro.stream import NOOP, RECOMPUTE, REPAIR, Subscription, SubscriptionRegistry
from repro.utils.validation import COORDINATE_BOUND
from tests.conftest import cache_put, random_instance
from tests.model import Model

INF = math.inf

settings.register_profile(
    "service-model-ci",
    # per stratum: 15 strata, 105 examples in all, each of about 40 rule
    # calls (an opening of 16 to 19, then 25 drawn)
    max_examples=7,
    stateful_step_count=25,
    # every run is seeded (run()); this keeps the example database off
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    # shrinking a failing run took minutes; the seeded run replays it
    # exactly, and run(..., phases=list(Phase)) shrinks it locally
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)

#: few distinct weights, several of them sums of others: equal-length
#: alternative paths everywhere
WEIGHTS = (0.125, 0.25, 0.375, 0.5, 1.0)
#: a coarse lattice: co-located users and equal distances
LATTICE = (0.0, 0.25, 0.5, 0.75, 1.0)
#: coordinates a move accepts at the edges of the input domain: its
#: bound and the subnormals
HOSTILE = (COORDINATE_BOUND, -COORDINATE_BOUND, 5e-324, -5e-324, 2.2250738585072014e-308)
#: one ulp past the bound: a move refuses them
PAST = (math.nextafter(COORDINATE_BOUND, INF), math.nextafter(-COORDINATE_BOUND, -INF))

coordinates = st.one_of(
    st.sampled_from(LATTICE),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(HOSTILE + PAST),
)
alphas = st.one_of(
    st.sampled_from((0.0, 1.0)),
    st.sampled_from((0.3, 0.7)),
    st.floats(min_value=0.01, max_value=0.99),
)
#: the ``α`` below 1, where a query user needs a location
below_one = st.one_of(st.sampled_from((0.0, 0.3, 0.7)), st.floats(min_value=0.01, max_value=0.99))
methods = st.sampled_from(METHODS + (AUTO,))
#: how a recorded edge update is folded in
folds = st.sampled_from(("rebuild", "snapshot manager"))

#: the table kinds, each with the normalisers it makes 0 at build
TABLES = {
    "small": (),
    "P_max 0": ("P_max",),
    "D_max 0": ("D_max",),
    "both 0": ("P_max", "D_max"),
    "large": (),
}
CACHE_SIZES = (0, 1, 64)
#: column cache budgets, in columns (``None``: the default budget)
BUDGETS = (0, 1, None)

Stratum = namedtuple("Stratum", "table cache_size columns")
Stratum.__str__ = lambda s: "{}-cache{}-budget{}".format(
    s.table.replace(" ", ""), s.cache_size, "default" if s.columns is None else s.columns
)

#: a covering set of the three factors: every (table, cache size) pair
#: once, the budget rotated so that every (table, budget) and (cache
#: size, budget) pair appears too.  Each table kind is in 3 strata, each
#: cache size and budget in 5.
STRATA = tuple(
    Stratum(table, size, BUDGETS[(i + j) % len(BUDGETS)])
    for i, table in enumerate(TABLES)
    for j, size in enumerate(CACHE_SIZES)
)
#: the re-roll check: every stratum also runs under each of these
#: seeds, beside the roll its source hash draws
SEEDS = (1, 2, 3)


@st.composite
def instances(draw, zero=()):
    """``(n, directed, edges, locations)`` with ``u < v`` edge keys
    when undirected.  ``zero`` names the normalisers the table makes 0:
    with ``P_max`` it is edgeless, with ``D_max`` every located user
    sits on one position; otherwise it has an edge, and users 0 and 1
    sit apart.  User 0 is always located."""
    n = draw(st.integers(min_value=2, max_value=12))
    directed = draw(st.booleans())
    edges = {}
    if "P_max" not in zero:
        # (u, v) with v != u: v is drawn among the n - 1 others
        drawn = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2), st.sampled_from(WEIGHTS))
        for u, v, w in draw(st.lists(drawn, min_size=1, max_size=2 * n)):
            v += v >= u
            edges[(u, v) if directed or u < v else (v, u)] = w
    point = st.tuples(st.sampled_from(LATTICE), st.sampled_from(LATTICE))
    if "D_max" in zero:
        point = st.just(draw(point))
    located = draw(st.lists(st.sampled_from((True, True, False)), min_size=n, max_size=n))
    locations = {u: draw(point) for u in range(n) if located[u] or u == 0}
    if "D_max" not in zero:
        apart = [(x, y) for x in LATTICE for y in LATTICE if (x, y) != locations[0]]
        locations[1] = draw(st.sampled_from(apart))
    return n, directed, edges, locations


@st.composite
def large_instances(draw):
    """The same shape at 40–150 users, drawn from a seed: a ring through
    every user, so every source reaches everyone, and one to three more
    edges per user, half of them weighted off the lattice of
    :data:`WEIGHTS`; user 0 and 60–100 % of the rest located in the
    unit square.  On these ``bounded`` takes its first ball at
    ``k ≤ 3``."""
    n = draw(st.integers(min_value=40, max_value=150))
    directed = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ring = [(u, (u + 1) % n) for u in range(n)]
    chords = [rng.sample(range(n), 2) for _ in range(rng.choice((1, 2, 3)) * n)]
    edges = {}
    for u, v in ring + chords:
        weight = rng.choice(WEIGHTS) if rng.random() < 0.5 else rng.uniform(0.05, 1.0)
        edges[(u, v) if directed or u < v else (v, u)] = weight
    coverage = rng.choice((0.6, 0.9, 1.0))
    locations = {
        u: (rng.random(), rng.random()) for u in range(n) if u == 0 or rng.random() < coverage
    }
    return n, directed, edges, locations


def like_the_model(model, request, ask):
    """Assert that ``ask()`` answers ``request`` as ``model`` does, or
    raises the same ``ValueError`` for an unlocated query user.
    Returns whether there was an answer."""
    try:
        want = model.answer(request.user, request.k, request.alpha)
    except ValueError as error:
        with pytest.raises(ValueError, match=re.escape(str(error))):
            ask()
        return False
    assert_answer(ask(), want, request)
    return True


def assert_answer(result, want, request):
    """The same ids in the same order as ``want``, and finite,
    bit-equal scores (``ais``: within 1e-9, relative above a score of
    1, where one ulp outgrows any absolute bound)."""
    got = [(nb.user, nb.score) for nb in result]
    context = f"{request} ran {result.method}: {got} != {want}"
    assert all(math.isfinite(score) for _, score in got), context
    assert [u for u, _ in got] == [u for u, _ in want], context
    if result.method == "ais":
        assert all(
            abs(a - b) <= 1e-9 * max(1.0, abs(b)) for (_, a), (_, b) in zip(got, want)
        ), context
    else:
        assert got == want, context


def answers_like_the_model(service, model, request) -> bool:
    """:func:`like_the_model` for one ``service.query``."""
    return like_the_model(model, request, lambda: service.query(request).result)


#: what every example reaches in its opening, whatever its stratum: a
#: rule or path a strategy or precondition change stops reaching fails
#: here instead of going quiet
FLOORS = (
    "batch", "subscribe", "unsubscribe", "flush applied", "snapshot manager", "snapshot store",
    "restore manager", "restore store", "refused moves", "bounded skip", "suspended resumes",
    "folded re-weights", "folded deletes", "tree rebuilds",
)


def floors(stratum) -> "list[str]":
    """What every example of ``stratum`` reaches: :data:`FLOORS`, the
    first ball and an ``α = 0`` query that merges the k-d tree's dirty
    users on a large table (a small one has too few located users for
    one dirty user to stay under the rebuild bound), and each zero
    normaliser's re-estimate (and, for ``D_max``, a move to the bound
    while it is 0)."""
    zeros = TABLES[stratum.table]
    return (
        list(FLOORS)
        + ["bounded ball", "α = 0 dirty"] * (stratum.table == "large")
        + [f"re-estimated {name}" for name in zeros]
        + ["bound moves, D_max 0"] * ("D_max" in zeros)
    )


class ServiceModel(RuleBasedStateMachine):
    """One service, one registry and one model, stepped in lockstep."""

    #: requests re-asked after each update (the most recent distinct ones)
    REMEMBERED = 6
    #: live subscriptions at most
    SUBSCRIPTIONS = 4

    def __init__(self, stratum, counts: Counter) -> None:
        super().__init__()
        self.stratum = stratum
        #: what the run reached so far, by rule and path
        self.counts = counts

    @initialize(data=st.data(), landmarks=st.integers(1, 3), s=st.integers(1, 4))
    def build(self, data, landmarks, s):
        """The stratum's table, result cache and column budget, the
        drawn landmarks and grid; then :meth:`opening`."""
        table, cache_size, columns = self.stratum
        zeros = TABLES[table]
        instance = large_instances() if table == "large" else instances(zeros)
        n, directed, edges, locations = data.draw(instance)
        graph = SocialGraph.from_edges(
            n, [(u, v, w) for (u, v), w in edges.items()], directed=directed
        )
        budget = None if columns is None else 8 * n * columns
        engine = GeoSocialEngine(
            graph, LocationTable.from_dict(n, locations),
            num_landmarks=min(landmarks, n), s=s, seed=1, social_cache_bytes=budget,
        )
        norm = engine.normalization
        assert {name for name, value in (("P_max", norm.p_max), ("D_max", norm.d_max))
                if value == 0.0} == set(zeros), f"{table}: {norm}"
        self.budget = DEFAULT_SOCIAL_CACHE_BYTES if budget is None else budget
        self.service = QueryService(engine, cache_size=cache_size)
        self.registry = SubscriptionRegistry(self.service)
        self.root = Path(tempfile.mkdtemp(prefix="service-model-"))
        self.manager = self.service.snapshots(self.root / "managed")
        self.model = Model(n, edges, locations, norm, directed, seed=1)
        self.n = n
        self.users = st.integers(0, n - 1)
        self.asked: "dict[QueryRequest, None]" = {}
        self.subs: list = []
        #: the latest snapshot: ``(through, path, model)``
        self.saved = None
        #: cached columns already checked against the model
        self.verified: dict = {}
        #: the model's answers (or errors) since the last update
        self.answers: dict = {}
        #: whether this step updated anything served or recorded
        self.updated = False
        self.opening(data)

    def opening(self, data):
        """One call of each counted rule, in an order where each one's
        precondition holds, with drawn arguments, so that every example
        reaches every path its stratum allows whatever Hypothesis draws
        next:

        - a fresh ``bounded`` at ``k ≤ 3``: its first ball on a large
          table (the ring reaches everyone until an edge goes), a skip
          on a small one; on a large table also at ``k`` past ``n``, a
          skip;
        - ``auto`` at ``α = 0`` over a k-d tree with dirty users, and
          past the rebuild bound (:meth:`nearest`);
        - with a zero normaliser, its way out, which re-estimates it;
        - a query, which the result cache keeps;
        - a subscription whose query user is forgotten: the flush that
          applies its recompute suspends it;
        - a served edge re-weighted and folded in by a rebuild, then
          one deleted and folded in by the manager's snapshot (after a
          re-estimate even an edgeless table has an edge), restored;
        - the query user's return one ulp past the bound: refused, it
          lands on the bound and resumes the subscription;
        - a ``save_engine`` snapshot of the moved engine, restored;
        - a user moved onto the query user: an entrant that a
          repairable ``α = 0`` subscription repairs in; then that
          snapshot restored again, after the restored engine moved;
        - a batch, and an unsubscribe.
        """
        interior = st.floats(min_value=0.5, max_value=0.99)
        self.fresh_bounded(data, data.draw(interior), data.draw(st.sampled_from((1, 2, 3))))
        if self.stratum.table == "large":
            self.fresh_bounded(data, data.draw(interior), self.n + 5)
        self.nearest(data)
        if TABLES[self.stratum.table]:
            self.renormalise(
                data, data.draw(st.sampled_from((COORDINATE_BOUND, -COORDINATE_BOUND) + PAST)),
                data.draw(coordinates), data.draw(st.sampled_from(WEIGHTS)), data.draw(folds),
            )
        self.query(data, data.draw(methods), data.draw(alphas))
        user = data.draw(st.sampled_from(sorted(self.model.locations)))
        self.subscribe(data, data.draw(methods), data.draw(below_one), user)
        self.relocate(user, None, None)
        self.flush()
        self.reweight(data, "rebuild")
        self.delete(data, "snapshot manager")
        self.persist("restore")
        self.resume(data, data.draw(st.sampled_from(PAST)), data.draw(coordinates))
        self.persist("snapshot store")
        self.persist("restore")
        k = data.draw(st.sampled_from((1, 2, 3)))
        method = data.draw(st.sampled_from(sorted(FORWARD_DETERMINISTIC_METHODS)))
        entrant = self.registry.subscribe(QueryRequest(user, k=k, alpha=0.0, method=method))
        self.subs.append(entrant)
        outside = [u for u in range(self.n) if u != user and u not in entrant.member_ids]
        if outside:
            self.relocate(data.draw(st.sampled_from(outside)), *self.model.locations[user])
        like_the_model(self, entrant.request, partial(self.registry.result, entrant))
        self.persist("restore")
        self.batch(data, data.draw(st.lists(st.tuples(methods, alphas), min_size=1, max_size=3)))
        self.unsubscribe(data)
        self.counts["examples"] += 1

    def teardown(self):
        if hasattr(self, "service"):
            self.registry.close()
            self.service.close()
            shutil.rmtree(self.root, ignore_errors=True)

    def _user(self, data):
        return data.draw(self.users)

    def _request(self, data, method, alpha, user=None):
        user = self._user(data) if user is None else user
        # n - 1 is everyone but the query user
        k = data.draw(st.sampled_from((1, 2, 3, 10, self.n - 1, self.n + 5)))
        return QueryRequest(user, k=k, alpha=alpha, method=method)

    def answer(self, user, k, alpha):
        """``self.model.answer``, kept until the next update (the
        machine is the model :func:`like_the_model` asks)."""
        key = (user, k, alpha)
        if key not in self.answers:
            try:
                self.answers[key] = self.model.answer(user, k, alpha)
            except ValueError as error:
                self.answers[key] = error
        found = self.answers[key]
        if isinstance(found, ValueError):
            raise found
        return found

    def _note(self, response):
        """Count which path a fresh ``bounded`` run took (a cached
        column answers before the rule is consulted): its first ball or
        not, and at ``α = 0`` whether its k-d tree had dirty users to
        merge or rebuilt past the bound."""
        extra = response.result.stats.extra
        if response.cached:
            return
        if "bounded_passes" in extra:
            ball = extra["bounded_passes"] == 2 or extra["bounded_radius"] < INF
            self.counts["bounded ball" if ball else "bounded skip"] += 1
        if extra.get("tree_dirty"):
            self.counts["tree rebuilds" if extra["tree_rebuilt"] else "α = 0 dirty"] += 1

    # -- queries ----------------------------------------------------------

    @rule(data=st.data(), method=methods, alpha=alphas)
    def query(self, data, method, alpha):
        request = self._request(data, method, alpha)
        self.asked.pop(request, None)
        self.asked[request] = None
        if len(self.asked) > self.REMEMBERED:
            del self.asked[next(iter(self.asked))]
        self.check(request)

    def check(self, request):
        def ask():
            response = self.service.query(request)
            self._note(response)
            return response.result

        return like_the_model(self, request, ask)

    def _columnless(self):
        """Located users whose social column is not cached."""
        cache = self.service.engine.social_cache
        return [u for u in self.model.locations if cache is None or not cache.contains_full(u)]

    @precondition(lambda self: self._columnless())
    @rule(
        data=st.data(),
        alpha=st.floats(min_value=0.5, max_value=0.99),
        k=st.sampled_from((1, 2, 3)),
    )
    def fresh_bounded(self, data, alpha, k):
        """``bounded`` from a located user with no cached column, so it
        runs fresh and decides on its first ball: taken at ``k ≤ 3`` on
        a large table, skipped on a small one or at ``k`` past ``n``."""
        user = data.draw(st.sampled_from(self._columnless()))
        assert self.check(QueryRequest(user, k=k, alpha=alpha, method="bounded"))

    @precondition(lambda self: self.model.locations)
    @rule(data=st.data())
    def nearest(self, data):
        """``auto`` at ``α = 0``, which builds ``bounded``'s k-d tree if
        there is none; then again after a move, after a forget (of a
        user who leaves someone located), and after moves of more than
        an eighth of the table's users, each of which marks the tree
        dirty: the last query rebuilds it."""

        def ask():
            user = data.draw(st.sampled_from(sorted(self.model.locations)))
            k = data.draw(st.sampled_from((1, 2, 3, self.n + 5)))
            assert self.check(QueryRequest(user, k=k, alpha=0.0, method=AUTO))

        ask()
        self.relocate(self._user(data), data.draw(coordinates), data.draw(coordinates))
        ask()
        located = set(self.model.locations)
        self.relocate(data.draw(st.sampled_from([u for u in range(self.n) if located - {u}])),
                      None, None)
        ask()
        for user in data.draw(st.permutations(range(self.n)))[: self.n // 8 + 1]:
            self.relocate(user, data.draw(coordinates), data.draw(coordinates))
        ask()

    @rule(data=st.data(), picked=st.lists(st.tuples(methods, alphas), min_size=1, max_size=3))
    def batch(self, data, picked):
        """One ``query_many`` over one user's requests and a repeat of
        the first; an unlocated user below ``α = 1`` fails the batch."""
        user = self._user(data)
        requests = [self._request(data, m, a, user) for m, a in picked]
        requests.append(requests[0])
        self.counts["batch"] += 1
        try:
            wants = [self.answer(r.user, r.k, r.alpha) for r in requests]
        except ValueError:
            with pytest.raises(ValueError, match="no known location"):
                self.service.query_many(requests)
            return
        for request, want, response in zip(requests, wants, self.service.query_many(requests)):
            self._note(response)
            assert_answer(response.result, want, request)

    @invariant()
    def remembered_answers_hold(self):
        """With the result cache on, every remembered request is asked
        again after each update: a hit or a fresh search, it must still
        be the model's answer.  (Without the cache a repeat is one more
        fresh search, which the query rule already checks.)"""
        if getattr(self, "updated", False):
            self.updated = False
            if self.service.cache is not None:
                for request in list(self.asked):
                    self.check(request)

    # -- location updates ---------------------------------------------------

    @rule(
        data=st.data(),
        moves=st.lists(st.tuples(coordinates, coordinates, st.booleans()), min_size=1, max_size=3),
    )
    def move(self, data, moves):
        """A burst of moves, each maybe followed by a registry flush."""
        for x, y, flush in moves:
            self.relocate(self._user(data), x, y)
            if flush:
                self.flush()

    @rule(data=st.data())
    def forget(self, data):
        self.relocate(self._user(data), None, None)

    def relocate(self, user, x, y):
        """Move ``user`` to ``(x, y)`` (``x is None``: forget it) in
        both, then check what the result cache and the registry did
        with the rule's verdict on each result they hold."""
        where = self.service.engine.locations.get
        if x is not None and (x in PAST or y in PAST):
            # refused one ulp past the bound, then moved to the bound
            self.refused(user, x, y)
            x, y = (min(max(c, -COORDINATE_BOUND), COORDINATE_BOUND) for c in (x, y))
        # forgetting an unlocated user is no update at all
        fires = x is not None or where(user) is not None
        cache = self.service.cache
        held = dict(cache._entries) if cache is not None else {}
        subs = {
            sub: (self._verdict(sub, user, x, y) if fires else None, set(sub.pending),
                  sub.recompute_pending)
            for sub in self.subs
        }
        if x is None:
            self.service.forget_location(user)
            self.model.locations.pop(user, None)
        else:
            self.service.move_user(user, x, y)
            self.model.locations[user] = (x, y)
            self.counts["bound moves, D_max 0"] += (
                COORDINATE_BOUND in (abs(x), abs(y)) and self.model.normalization.d_max == 0.0
            )
        self.answers.clear()
        self.updated = True
        for key, result in held.items():
            if fires and result.alpha < 1.0:
                assert cache.peek(key) is None, f"an entry below alpha = 1 survived: {key}"
            else:
                assert cache.peek(key) is result, f"an entry was touched: {key}"
        for sub, (verdict, pending, recompute) in subs.items():
            if verdict is None:
                assert (sub.pending, sub.recompute_pending) == (pending, recompute), sub
            elif verdict == NOOP:
                assert (sub.pending, sub.recompute_pending) == (pending - {user}, recompute), sub
            elif verdict == REPAIR and sub.repairable and not recompute:
                # past the pending limit a repair escalates
                assert user in sub.pending or sub.recompute_pending, sub
            else:
                assert sub.recompute_pending, f"{verdict} not marked on {sub}"

    def refused(self, user, x, y):
        """A move one ulp past the domain's bound: a ``ValueError``
        naming the field, and nothing served, cached or queued moves."""
        entries, queued = self._stored()
        before = self.service.engine.locations.get(user)
        field = "x" if x in PAST else "y"
        with pytest.raises(ValueError, match=rf"^{field} must be a number in \[-2\*\*500"):
            self.service.move_user(user, x, y)
        assert self.service.engine.locations.get(user) == before
        now, queued_now = self._stored()
        assert now.keys() == entries.keys() and all(now[k] is entries[k] for k in now)
        assert queued_now == queued
        self.counts["refused moves"] += 1

    def _verdict(self, sub, user, x, y):
        """The registry's classification of one update for ``sub``."""
        if sub.result is None:  # suspended: only its query user matters
            return RECOMPUTE if user == sub.user else NOOP
        return sub.classify(user, x, y, self.service.engine.locations.get(sub.user))

    # -- edge updates and engine swaps --------------------------------------

    def _stored(self):
        """What is maintained right now: the result cache's entries and
        each subscription's queued work."""
        cache = self.service.cache
        entries = {} if cache is None else dict(cache._entries)
        return entries, [(set(sub.pending), sub.recompute_pending) for sub in self.subs]

    @rule(data=st.data(), weight=st.one_of(st.none(), st.sampled_from(WEIGHTS)))
    def update_edge(self, data, weight):
        """An edge update on any pair: an insert, a re-weight or a
        delete."""
        u = self._user(data)
        v = data.draw(st.integers(0, self.n - 2))  # one of the n - 1 others
        self.record(u, v + (v >= u), weight)

    def record(self, u, v, weight):
        """Record one edge update in both (deleting an absent edge is a
        ``KeyError``); nothing maintained moves."""
        if weight is None and not self.model.has_edge(u, v):
            with pytest.raises(KeyError):
                self.service.update_edge(u, v, None)
            return
        entries, queued = self._stored()
        self.service.update_edge(u, v, weight)
        self.model.update_edge(u, v, weight)
        self.updated = True
        assert self.service.pending_edge_updates == len(self.model.pending)
        now, queued_now = self._stored()
        assert now.keys() == entries.keys() and all(now[k] is entries[k] for k in now)
        assert queued_now == queued

    def _served_edge(self, data):
        """A served edge, named in either orientation."""
        u, v = data.draw(st.sampled_from(sorted(self.model.edges)))
        if not self.model.directed and data.draw(st.booleans()):
            u, v = v, u
        return u, v

    @precondition(lambda self: self.model.edges)
    @rule(data=st.data(), fold=folds)
    def reweight(self, data, fold):
        """A served edge given another weight, then folded in."""
        u, v = self._served_edge(data)
        served = self.model.edges[self.model.key(u, v)]
        self.record(u, v, data.draw(st.sampled_from([w for w in WEIGHTS if w != served])))
        self.fold(fold)

    @precondition(lambda self: self.model.edges)
    @rule(data=st.data(), fold=folds)
    def delete(self, data, fold):
        """A served edge deleted, then folded in."""
        self.record(*self._served_edge(data), None)
        self.fold(fold)

    def fold(self, how):
        """Fold the recorded edge updates in: ``rebuild_engine`` or a
        folding snapshot."""
        if how == "rebuild":
            self.rebuild_engine()
        else:
            self.persist(how)

    @precondition(lambda self: self.model.pending)
    @rule()
    def rebuild_engine(self):
        swaps = self.registry.stats.engine_swaps
        self.service.rebuild_engine()
        self.rebuilt()
        # the registry heard the swap from the service, once; the flush
        # applies the recomputes it marked
        self.registry.flush()
        assert self.registry.stats.engine_swaps == swaps + 1

    @precondition(
        lambda self: 0.0 in (self.model.normalization.p_max, self.model.normalization.d_max)
    )
    @rule(
        data=st.data(),
        x=st.sampled_from((COORDINATE_BOUND, -COORDINATE_BOUND) + PAST),
        y=coordinates,
        weight=st.sampled_from(WEIGHTS),
        fold=folds,
    )
    def renormalise(self, data, x, y, weight, fold):
        """A zero normaliser's way out: a move to the bound that leaves
        another located user behind elsewhere (when one is left), a
        recorded edge update, then a fold, which re-estimates it."""
        located = self.model.locations
        spot = tuple(min(max(c, -COORDINATE_BOUND), COORDINATE_BOUND) for c in (x, y))
        if located and set(located.values()) == {spot}:
            x, spot = -x, (-spot[0], spot[1])  # everyone is on the spot: the other bound
        apart = {u for u, xy in located.items() if xy != spot}
        movers = [u for u in range(self.n) if apart - {u}] or range(self.n)
        self.relocate(data.draw(st.sampled_from(movers)), x, y)
        self.update_edge(data, weight)
        self.fold(fold)

    def rebuilt(self):
        """The model folds its recorded edge updates and re-estimates a
        zero normaliser, as the service did."""
        before = self.model.normalization
        edges, pending = self.model.edges, self.model.pending
        self.counts["folded re-weights"] += any(
            edges.get(key, w) != w for key, w in pending.items() if w is not None
        )
        self.counts["folded deletes"] += any(
            key in edges for key, w in pending.items() if w is None
        )
        self.model.rebuild()
        after = self.model.normalization
        served = self.service.engine
        assert {(u, v): w for u, v, w in served.graph.edges()} == self.model.edges
        assert served.normalization == after
        # only the column budget crosses a rebuild, never a column
        assert served.social_cache is None or len(served.social_cache) == 0
        self.counts["re-estimated P_max"] += before.p_max != after.p_max
        self.counts["re-estimated D_max"] += before.d_max != after.d_max
        self.swapped()

    def swapped(self):
        """After an engine swap: forget the model's answers, and which
        cached columns were checked (a column carried across the swap
        must be checked again)."""
        self.answers.clear()
        self.verified.clear()
        self.updated = True

    # restoring is drawn as often as taking a snapshot
    @rule(action=st.sampled_from(("snapshot manager", "restore", "snapshot store", "restore")))
    def persist(self, action):
        """Snapshot through a ``SnapshotManager``, which folds the
        recorded edge updates first, or through ``save_engine``; or
        restore the latest snapshot the way it was taken: its edges and
        locations, the recorded edge updates discarded."""
        if action == "restore":
            if self.saved is None:
                return
            through, path, model = self.saved
            if through == "manager":
                self.manager.restore()
            else:
                self.service.replace_engine(load_engine(path, mmap=True))
            self.model = model.copy()
            self.swapped()
            action += " " + through
        elif action == "snapshot manager":
            folds = bool(self.model.pending)  # the manager rebuilds only then
            path = self.manager.snapshot()
            if folds:
                self.rebuilt()
            self.saved = ("manager", path, self.model.copy())
        else:
            path = save_engine(self.service.engine, self.root / f"saved-{self.counts[action]}")
            self.saved = ("store", path, self.model.copy())
        self.counts[action] += 1

    # -- subscriptions ------------------------------------------------------

    @precondition(lambda self: len(self.subs) < self.SUBSCRIPTIONS)
    @rule(data=st.data(), method=methods, alpha=alphas)
    def subscribe(self, data, method, alpha, user=None):
        """A subscription; below ``α = 1`` an unlocated ``user``'s is
        suspended from the start."""
        self.subs.append(self.registry.subscribe(self._request(data, method, alpha, user)))
        self.counts["subscribe"] += 1

    @precondition(lambda self: self.subs)
    @rule(data=st.data())
    def unsubscribe(self, data):
        sub = self.subs.pop(data.draw(st.integers(0, len(self.subs) - 1)))
        self.registry.unsubscribe(sub)
        with pytest.raises(KeyError):
            self.registry.result(sub)
        self.counts["unsubscribe"] += 1

    @precondition(lambda self: any(sub.suspended for sub in self.subs))
    @rule(data=st.data(), x=coordinates, y=coordinates)
    def resume(self, data, x, y):
        """A suspended subscription's query user returns: the next read
        resumes it with the model's answer."""
        sub = data.draw(st.sampled_from([sub for sub in self.subs if sub.suspended]))
        self.relocate(sub.user, x, y)
        assert like_the_model(self, sub.request, partial(self.registry.result, sub))
        assert not sub.suspended
        self.counts["suspended resumes"] += 1

    @rule()
    def flush(self):
        applied = self.registry.flush()
        self.counts["flush applied"] += applied["repaired"] + applied["recomputed"] > 0

    @invariant()
    def subscriptions_answer_like_the_model(self):
        for sub in getattr(self, "subs", ()):
            like_the_model(self, sub.request, partial(self.registry.result, sub))

    # -- the column cache ---------------------------------------------------

    @invariant()
    def column_cache_holds_columns_at_its_layout(self):
        """The layout is ascending and holds every located user, and each
        entry is its user's exact distances at the layout's ids."""
        if not hasattr(self, "service"):
            return
        cache = self.service.engine.social_cache
        if self.budget == 0:
            assert cache is None
            return
        assert cache.max_bytes == self.budget
        layout = cache.layout.tolist()
        assert layout == sorted(set(layout)), "the layout is not ascending"
        assert set(self.model.locations) <= set(layout), "a located user is outside the layout"
        assert cache.bytes_used == len(cache) * 8 * len(layout)
        for user, column in list(cache._entries.items()):
            if self.verified.get(user) is column:
                continue
            assert column.dtype == np.float64 and column.shape == (len(layout),), user
            social = self.model.social_distances(user)
            want = [social.get(v, INF) for v in layout]
            assert column.tolist() == want, f"the cached column of {user} is not at the layout"
            self.verified[user] = column


@cache
def _source() -> str:
    return inspect.getsource(ServiceModel)


def roll(stratum, fixed=None) -> int:
    """The Hypothesis seed of one run: a hash of the stratum and of
    ``fixed``, or of :class:`ServiceModel`'s source when ``fixed`` is
    ``None``, so that any edit to the machine re-rolls that run."""
    salt = _source() if fixed is None else str(fixed)
    return int.from_bytes(hashlib.sha256(f"{salt}\n{stratum}".encode()).digest()[:8], "big")


#: a fixed seed's run: the profile's first example is the same for
#: every seed (Hypothesis starts from the simplest draws), then one of
#: the seed's own
REROLL = {"max_examples": 2, "stateful_step_count": 5}


def run(stratum, fixed=None, **overrides) -> Counter:
    """Run the machine over one stratum under :func:`roll`'s seed and
    the ``service-model-ci`` profile (:data:`REROLL`'s size for a fixed
    seed), changed by ``overrides`` (``phases=list(Phase)`` shrinks a
    failure); returns what it reached, ``"examples"`` counting the
    examples that finished their opening."""
    reached = Counter()

    @seed(roll(stratum, fixed))
    def machine():
        return ServiceModel(stratum, reached)

    size = {} if fixed is None else REROLL
    profile = settings(settings.get_profile("service-model-ci"), **{**size, **overrides})
    run_state_machine_as_test(machine, settings=profile)
    return reached


@pytest.mark.parametrize("stratum", STRATA, ids=str)
@pytest.mark.parametrize("fixed", (None,) + SEEDS, ids=lambda s: f"seed{s}" if s else "source")
def test_service_model(fixed, stratum):
    """One stratum's run, then its floors: every example reached
    everything :func:`floors` names."""
    reached = run(stratum, fixed)
    short = {name: reached[name] for name in floors(stratum) if reached[name] < reached["examples"]}
    assert reached["examples"] and not short, (
        f"reached less often than the {reached['examples']} examples: {short}"
    )


def test_a_zero_normaliser_leaves_every_score_finite():
    """A normaliser of 0 (``P_max`` on an edgeless graph, ``D_max``
    over fewer than two distinct located positions) leaves its term
    unscaled, so every score stays finite: a user moved to the bound
    ``±2**500`` ranks at its plain distance, in the engine and the
    model alike, and NumPy warns of nothing."""
    bound = COORDINATE_BOUND
    graph = SocialGraph.from_edges(3, [])
    table = LocationTable.from_dict(3, {0: (0.5, 0.5), 1: (0.5, 0.5), 2: (0.5, 0.5)})
    engine = GeoSocialEngine(graph, table, num_landmarks=1, s=2, seed=1)
    assert (engine.normalization.p_max, engine.normalization.d_max) == (0.0, 0.0)
    model = Model.of_engine(engine)
    with QueryService(engine, cache_size=0) as service, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x, y in ((bound, -bound), (-bound, 5e-324), (0.5, 0.5)):
            service.move_user(1, x, y)
            model.locations[1] = (x, y)
            for method in METHODS + (AUTO,):
                for alpha in (0.0, 0.5, 1.0):
                    request = QueryRequest(0, k=3, alpha=alpha, method=method)
                    assert answers_like_the_model(service, model, request)
            # α = 0 ranks both others at their distance; with no edge,
            # every social term is infinite
            assert model.answer(0, 3, 0.0) == sorted(
                [(2, 0.0), (1, model.distance(0, 1))], key=lambda row: (row[1], row[0])
            )
            assert model.answer(0, 3, 0.5) == model.answer(0, 3, 1.0) == []


@pytest.mark.parametrize("fold", ("rebuild_engine", "snapshot"))
@pytest.mark.parametrize("spread", (False, True), ids=("D_max-0", "D_max-positive"))
def test_a_rebuild_re_estimates_a_zero_normaliser(fold, spread, tmp_path):
    """An edgeless engine has ``P_max = 0`` until a rebuild gives its
    graph edges.  The rebuild (``rebuild_engine``, or a folding
    ``SnapshotManager.snapshot``) re-estimates each normaliser that is
    0 over the new graph and the current locations, and keeps a
    positive one even where a re-estimate would differ.  The new
    neighbour then ranks with a finite score equal to the model's, and
    a repeat of an earlier question is a miss answered by the new
    engine, through ``query`` and ``cached`` alike."""
    where = {0: (0.5, 0.5), 1: (0.5, 0.5), 2: (0.75 if spread else 0.5, 0.5)}
    engine = GeoSocialEngine(
        SocialGraph.from_edges(3, []), LocationTable.from_dict(3, where),
        num_landmarks=1, s=2, seed=1,
    )
    before = engine.normalization
    assert before.p_max == 0.0 and (before.d_max > 0.0) is spread
    model = Model.of_engine(engine)
    question = QueryRequest(0, k=3, alpha=0.5, method="auto")
    with QueryService(engine, cache_size=8) as service, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        service.move_user(1, COORDINATE_BOUND, 0.5)
        model.locations[1] = (COORDINATE_BOUND, 0.5)
        service.update_edge(0, 2, 2.0**30)
        model.update_edge(0, 2, 2.0**30)
        # nobody is reachable yet: the question's answer is empty, and cached
        assert answers_like_the_model(service, model, question)
        assert service.cached(question).result.users == []
        # a normalisation given to the rebuild is taken as given
        assert engine.with_graph(engine.graph, normalization=before).normalization is before
        if fold == "rebuild_engine":
            service.rebuild_engine()
        else:
            service.snapshots(tmp_path).snapshot()
        model.rebuild()
        new = service.engine
        assert new is not engine
        fresh = Normalization.estimate(new.graph, new.locations, seed=1)
        assert new.normalization.p_max == fresh.p_max == 2.0**30
        assert new.normalization.d_max == (before.d_max if spread else fresh.d_max)
        assert fresh.d_max != before.d_max  # the move to the bound widened the box
        assert model.normalization == new.normalization
        # the repeat is a miss, answered by the new engine
        assert service.cached(question) is None
        response = service.query(question)
        assert not response.cached and 2 in response.result.users
        assert service.cached(question).result is response.result
        for alpha in (0.5, 1.0):
            for method in METHODS + (AUTO,):
                request = QueryRequest(0, k=3, alpha=alpha, method=method)
                assert answers_like_the_model(service, model, request)
            [(user, score)] = model.answer(0, 3, alpha)
            assert user == 2 and math.isfinite(score)


# -- pins the model cannot check ----------------------------------------------


def stack(n, seed, coverage=1.0, cache_size=0):
    """A small engine, a service and a registry over it."""
    graph, locations = random_instance(n, seed=seed, coverage=coverage)
    engine = GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=3)
    service = QueryService(engine, cache_size=cache_size)
    return engine, service, SubscriptionRegistry(service)


def test_pending_limit_escalates_to_recompute(monkeypatch):
    """More buffered deltas than ``PENDING_LIMIT`` escalate to one
    recompute (a repair pass would approach recompute cost anyway)."""
    monkeypatch.setattr("repro.stream.registry.PENDING_LIMIT", 3)
    engine, service, registry = stack(60, seed=17)
    q = next(iter(engine.locations.located_users()))
    sub = registry.subscribe(q, k=4, alpha=0.3, method="spa")
    qx, qy = engine.locations.get(q)
    movers = [u for u in range(engine.graph.n) if u != q][:6]
    for i, m in enumerate(movers):  # all land next to q: all repair-marked
        service.move_user(m, min(1.0, qx + 1e-4 * (i + 1)), qy)
    assert sub.recompute_pending, "pending cap must escalate"
    model = Model.of_engine(engine)
    assert like_the_model(model, sub.request, lambda: registry.result(sub))
    registry.close()
    service.close()


def test_subscribe_validates_before_registering():
    """A bad request must not leave a half-registered subscription."""
    engine, service, registry = stack(20, seed=3)
    with pytest.raises(ValueError):
        registry.subscribe(engine.graph.n + 5, k=4)  # out of range
    with pytest.raises(ValueError):
        registry.subscribe(0, k=0)  # invalid k
    with pytest.raises(ValueError):
        registry.subscribe(0, k=4, alpha=1.5)  # invalid alpha
    with pytest.raises(ValueError, match="unknown method"):
        registry.subscribe(0, k=4, method="bogus")
    assert len(registry) == 0 and registry.stats.subscribed == 0
    # A poisoned half-registration would make every later flush raise.
    assert registry.flush() == {"repaired": 0, "recomputed": 0}
    registry.close()
    service.close()


def test_auto_subscription_follows_the_planner_across_recomputes():
    """A subscription requested as ``auto`` is not pinned to its
    subscribe-time pick: its stored request stays ``auto``, every
    recompute re-resolves through the planner, ``sub.method`` follows
    ``result.method``, repairability follows the method, and the
    maintained result equals the model whichever method the latest
    recompute ran."""
    from repro.plan import Planner

    class ScriptedPlanner(Planner):
        """Resolves interior ``auto`` to whatever ``pick`` names."""

        pick = "tsa"

        def resolve(self, engine, request):
            method = super().resolve(engine, request)
            return self.pick if method == "bounded" else method

    engine, service, registry = stack(60, seed=17)
    planner = engine.planner = ScriptedPlanner()
    model = Model.of_engine(engine)
    q = next(iter(engine.locations.located_users()))

    sub = registry.subscribe(q, k=5, alpha=0.4, method="auto")
    assert sub.method == "tsa" and sub.request.method == "auto"
    assert sub.repairable
    resolved = planner.stats.auto_resolutions
    assert resolved >= 1  # the subscribe-time recompute resolved

    for step, (method, repairable) in enumerate(
        (("bruteforce", True), ("ais", False), ("bounded", True))
    ):
        planner.pick = method
        service.move_user(q, 0.3 + 0.1 * step, 0.5)  # query user moved: recompute
        model.locations[q] = (0.3 + 0.1 * step, 0.5)
        result = registry.result(sub)
        assert (result.method, sub.method, sub.request.method) == (method, method, "auto")
        assert sub.repairable is repairable
        assert planner.stats.auto_resolutions > resolved
        resolved = planner.stats.auto_resolutions
        assert like_the_model(model, sub.request, lambda: registry.result(sub))
        # a member's move is repaired in place iff the method that now
        # backs the result is forward-deterministic
        member = result.users[0]
        x, y = engine.locations.get(member)
        service.move_user(member, x + 1e-4, y)
        model.locations[member] = (x + 1e-4, y)
        assert (sub.pending == {member}) is repairable
        assert sub.recompute_pending is (not repairable)
        assert like_the_model(model, sub.request, lambda: registry.result(sub))
    # a named method never reaches the planner
    pinned = registry.subscribe(q, k=5, alpha=0.4, method="sfa")
    planner.pick = "bruteforce"
    service.move_user(q, 0.2, 0.2)
    assert registry.result(pinned).method == "sfa" and pinned.request.method == "sfa"
    registry.close()
    service.close()


def test_pure_social_subscriptions_ignore_location_churn():
    """α = 1 routes to SFA and never touches locations: every location
    update classifies NO-OP and the initial result object survives."""
    engine, service, registry = stack(50, seed=29, coverage=0.8)
    sub = registry.subscribe(0, k=6, alpha=1.0, method="ais")  # routes to sfa
    assert sub.method == "sfa"
    initial = registry.result(sub)
    rng = random.Random(2)
    for _ in range(20):
        service.move_user(rng.randrange(engine.graph.n), rng.random(), rng.random())
    assert registry.result(sub) is initial  # not even rebuilt
    assert registry.stats.recompute_marks == 0 and registry.stats.repair_marks == 0
    registry.close()
    service.close()


def test_forgetting_member_of_open_slot_result_is_a_recompute():
    """A member that forgets its location leaves the result.  With an
    open slot (``|R| < k``) dropping it would be exact, but the rule
    says RECOMPUTE, so the registry marks the subscription; the cache
    evicts the line as it evicts every line below ``α = 1`` on any
    update."""
    members = [Neighbor(5, 0.2, 0.1, 0.1), Neighbor(9, 0.4, 0.2, 0.3)]
    held = Subscription(QueryRequest(0, k=3, alpha=0.5, method="tsa"),
                        RankingFunction(0.5, Normalization(1.0, 1.0)))
    held.install(SSRQResult(0, 3, 0.5, members, method="tsa"))
    assert held.rank.w_spatial == 0.5 and len(held.result.neighbors) < held.k  # open slot
    assert held.classify(9, None, None, (0.0, 0.0)) == RECOMPUTE
    assert held.classify(7, None, None, (0.0, 0.0)) == NOOP  # a non-member's forget
    cache = ResultCache(capacity=4)
    key = cache_put(cache, 0, 3, 0.5, "tsa", members)
    out = cache.invalidate_location_update()
    assert (int(out), out.reused) == (1, 0)
    assert cache.peek(key) is None

    engine, service, registry = stack(40, seed=11, coverage=0.5, cache_size=8)
    q = next(iter(engine.locations.located_users()))
    sub = registry.subscribe(q, k=64, alpha=0.5, method="tsa")
    response = service.query(sub.request)
    assert len(response.result.neighbors) < 64, "needs an open slot"
    leaver = next(u for u in response.result.users if u != q)
    service.forget_location(leaver)
    assert sub.recompute_pending and not sub.pending
    assert len(service.cache) == 0
    assert leaver not in registry.result(sub).users
    assert like_the_model(Model.of_engine(engine), sub.request, lambda: registry.result(sub))
    registry.close()
    service.close()


def test_a_suspended_subscription_resumes_when_its_user_returns():
    """Forgetting the query user suspends its subscription (a read
    raises like the model), another user's move leaves it suspended,
    and its own user's return resumes it, step by step."""
    engine, service, registry = stack(50, seed=13)
    q = next(iter(engine.locations.located_users()))
    sub = registry.subscribe(q, k=5, alpha=0.4, method="spa")
    other = next(u for u in engine.locations.located_users() if u != q)
    service.forget_location(q)
    for mover, xy in ((other, (0.9, 0.9)), (q, (0.4, 0.6))):
        model = Model.of_engine(engine)
        assert not like_the_model(model, sub.request, lambda: registry.result(sub))
        assert sub.suspended and registry.stats.suspended == 1
        service.move_user(mover, *xy)
    assert like_the_model(Model.of_engine(engine), sub.request, lambda: registry.result(sub))
    assert not sub.suspended and sub.error is None and registry.stats.suspended == 0
    registry.close()
    service.close()


def test_a_registry_follows_only_an_open_service():
    """The registry reads through its service: once the service is
    closed, every serving call raises; ``close()`` unfollows."""
    engine, service, registry = stack(30, seed=5)
    sub = registry.subscribe(0, k=3, alpha=1.0)
    assert service._followers == [registry]
    service.close()
    for call in (lambda: registry.subscribe(1, k=3, alpha=1.0),
                 lambda: registry.result(sub), registry.flush):
        with pytest.raises(RuntimeError, match="QueryService is closed"):
            call()
    with pytest.raises(RuntimeError, match="QueryService is closed"):
        service.move_user(0, 0.5, 0.5)  # a closed service moves no one
    assert registry.stats.location_updates == 0
    registry.close()
    assert service._followers == []


def test_two_registries_each_hear_one_swap_per_rebuild():
    """Every follower hears each swap exactly once and answers like the
    new engine."""
    engine, service, first = stack(60, seed=17, coverage=0.9)
    second = SubscriptionRegistry(service)
    q = next(iter(engine.locations.located_users()))
    subs = [registry.subscribe(q, k=5, alpha=0.4) for registry in (first, second)]
    other = next(u for u in range(engine.graph.n) if u != q and not engine.graph.edge_weight(q, u))
    for rebuild in (1, 2):
        service.update_edge(q, other, 0.01 * rebuild)
        new_engine = service.rebuild_engine()
        for registry, sub in zip((first, second), subs):
            assert registry.stats.engine_swaps == rebuild
            assert registry.result(sub).users == new_engine.query(q, 5, 0.4).users
    second.close()
    first.close()
    service.close()
