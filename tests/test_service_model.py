"""The serving stack against the Definition 1 model, one step at a time.

A Hypothesis ``RuleBasedStateMachine`` drives one
:class:`~repro.service.QueryService` (its result cache on, over an
engine with its social column cache on) and a :class:`tests.model.Model`
through the same interleaving of

- **query**: every served method plus ``auto``; ``α`` = 0, 1 or an
  interior value; ``k`` from 1 to past ``n``;
- **move**: lattice points (co-located users, equal distances), the unit
  square, and hostile finite values: ``±1e308`` and subnormals;
- **forget** a location;
- **edge update**: insert, re-weight or delete (deleting an absent edge
  is a ``KeyError`` in both), recorded and not yet served;
- **rebuild_engine**, which folds the recorded updates in.

Every query's answer must equal the model's: ids and tie-breaks exact,
scores bit-equal (``ais`` sums its bounds in another order: within
1e-9).  A query user without a location below ``α = 1`` must raise
``ValueError`` in both.  Small tables and few distinct weights and
coordinates keep repeats, ties and result-cache hits frequent.

Runs under a registered, derandomized profile, so every run checks the
same steps.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core.engine import AUTO, METHODS, GeoSocialEngine
from repro.graph.socialgraph import SocialGraph
from repro.service import QueryRequest, QueryService
from repro.spatial.point import LocationTable
from tests.model import Model

settings.register_profile(
    "service-model-ci",
    max_examples=100,
    stateful_step_count=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: few distinct weights, several of them sums of others: equal-length
#: alternative paths everywhere
WEIGHTS = (0.125, 0.25, 0.375, 0.5, 1.0)
#: a coarse lattice: co-located users and equal distances
LATTICE = (0.0, 0.25, 0.5, 0.75, 1.0)
#: finite coordinates a move accepts at the edges of the float range
HOSTILE = (1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308)

coordinates = st.one_of(
    st.sampled_from(LATTICE),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(HOSTILE),
)
alphas = st.one_of(
    st.sampled_from((0.0, 1.0)),
    st.sampled_from((0.3, 0.7)),
    st.floats(min_value=0.01, max_value=0.99),
)


@st.composite
def instances(draw):
    """``(n, directed, edges, locations)`` with ``u < v`` edge keys
    when undirected."""
    n = draw(st.integers(min_value=2, max_value=12))
    directed = draw(st.booleans())
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda uv: uv[0] != uv[1]
    )
    edges = {}
    for (u, v), w in draw(st.lists(st.tuples(pairs, st.sampled_from(WEIGHTS)), max_size=2 * n)):
        edges[(u, v) if directed or u < v else (v, u)] = w
    point = st.tuples(st.sampled_from(LATTICE), st.sampled_from(LATTICE))
    located = draw(st.lists(st.sampled_from((True, True, False)), min_size=n, max_size=n))
    locations = {u: draw(point) for u in range(n) if located[u]}
    return n, directed, edges, locations


def answers_like_the_model(service, model, request) -> bool:
    """Assert that ``service`` answers ``request`` as ``model`` does:
    the same ids in the same order, bit-equal scores (``ais``: within
    1e-9), or the same ``ValueError`` for an unlocated query user.
    Returns whether there was an answer."""
    try:
        want = model.answer(request.user, request.k, request.alpha)
    except ValueError:
        with pytest.raises(ValueError, match="no known location"):
            service.query(request)
        return False
    result = service.query(request).result
    got = [(nb.user, nb.score) for nb in result]
    context = f"{request} ran {result.method}: {got} != {want}"
    assert [u for u, _ in got] == [u for u, _ in want], context
    if result.method == "ais":
        assert all(abs(a - b) <= 1e-9 for (_, a), (_, b) in zip(got, want)), context
    else:
        assert got == want, context
    return True


class ServiceModel(RuleBasedStateMachine):
    """One service and one model, stepped in lockstep."""

    #: what the runs so far checked (steps include each build), for
    #: reporting
    counts = {"steps": 0, "queries": 0, "raised": 0}
    #: requests re-asked after every step (the most recent distinct ones)
    REMEMBERED = 6

    @initialize(instance=instances(), landmarks=st.integers(1, 3), s=st.integers(1, 4))
    def build(self, instance, landmarks, s):
        n, directed, edges, locations = instance
        graph = SocialGraph.from_edges(
            n, [(u, v, w) for (u, v), w in edges.items()], directed=directed
        )
        table = LocationTable.from_dict(n, locations)
        engine = GeoSocialEngine(graph, table, num_landmarks=min(landmarks, n), s=s, seed=1)
        self.service = QueryService(engine, cache_size=64)
        self.model = Model(n, edges, locations, engine.normalization, directed)
        self.n = n
        self.asked: "dict[QueryRequest, None]" = {}

    def teardown(self):
        service = getattr(self, "service", None)
        if service is not None:
            service.close()

    def _user(self, data):
        return data.draw(st.integers(0, self.n - 1))

    @rule(data=st.data(), method=st.sampled_from(METHODS + (AUTO,)), alpha=alphas)
    def query(self, data, method, alpha):
        user = self._user(data)
        # n - 1 is everyone but the query user
        k = data.draw(st.sampled_from((1, 2, self.n - 1, self.n, self.n + 5)))
        request = QueryRequest(user, k=k, alpha=alpha, method=method)
        self.asked.pop(request, None)
        self.asked[request] = None
        if len(self.asked) > self.REMEMBERED:
            del self.asked[next(iter(self.asked))]
        self.check(request)

    @invariant()
    def remembered_answers_hold(self):
        """Every remembered request, asked again after this step: a
        result-cache hit or a fresh search, it must still be the
        model's answer."""
        self.counts["steps"] += 1
        for request in list(getattr(self, "asked", ())):
            self.check(request)

    def check(self, request):
        self.counts["queries"] += 1
        self.counts["raised"] += not answers_like_the_model(self.service, self.model, request)

    @rule(data=st.data(), x=coordinates, y=coordinates)
    def move(self, data, x, y):
        user = self._user(data)
        self.service.move_user(user, x, y)
        self.model.locations[user] = (x, y)

    @rule(data=st.data())
    def forget(self, data):
        user = self._user(data)
        self.service.forget_location(user)
        self.model.locations.pop(user, None)

    @rule(data=st.data(), weight=st.one_of(st.none(), st.sampled_from(WEIGHTS)))
    def update_edge(self, data, weight):
        u = self._user(data)
        v = data.draw(st.integers(0, self.n - 1).filter(lambda v: v != u))
        if weight is None and not self.model.has_edge(u, v):
            with pytest.raises(KeyError):
                self.service.update_edge(u, v, None)
            return
        self.service.update_edge(u, v, weight)
        self.model.update_edge(u, v, weight)

    @precondition(lambda self: self.model.pending)
    @rule()
    def rebuild_engine(self):
        self.service.rebuild_engine()
        self.model.rebuild()


TestServiceModel = ServiceModel.TestCase
TestServiceModel.settings = settings.get_profile("service-model-ci")


def test_hostile_moves_answer_like_the_model():
    """A fixed walk through the hostile corner, whatever the profile
    draws: users at ±1e308 and in the subnormals, where a spatial
    distance overflows to ``inf`` (no answer) or underflows to 0, over
    a grid whose span is past the float range."""
    graph = SocialGraph.from_edges(4, [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 1.0)])
    table = LocationTable.from_dict(4, {u: (u / 4, 0.5) for u in range(4)})
    engine = GeoSocialEngine(graph, table, num_landmarks=2, s=4, seed=1)
    model = Model.of_engine(engine)
    with QueryService(engine, cache_size=16) as service:
        for user, (x, y) in enumerate([(1e308, 1e308), (-1e308, 5e-324), (5e-324, -5e-324)]):
            service.move_user(user, x, y)
            model.locations[user] = (x, y)
            for method in METHODS + (AUTO,):
                for alpha in (0.0, 0.5, 1.0):
                    for asked in range(4):
                        request = QueryRequest(asked, k=4, alpha=alpha, method=method)
                        assert answers_like_the_model(service, model, request)
        # a grid built over that span, not moved into it
        service.rebuild_engine(s=1)
        model.rebuild()
        for method in METHODS + (AUTO,):
            assert answers_like_the_model(service, model, QueryRequest(0, k=4, alpha=0.0, method=method))
