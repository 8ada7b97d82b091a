"""Error-path parity: every layer rejects a bad request the same way.

The engine's contract is ``ValueError`` with pinned wording for the
request-error families — invalid parameters (``k``/``alpha``/method),
unknown user id, unlocated query user.  This suite drives each family
through all three call paths:

1. ``engine.query`` (the paper's algorithms),
2. ``QueryService.query`` (the serving layer),
3. the HTTP server (``POST /query``),

and asserts they agree: same exception type and message on the two
in-process paths, and the matching ``400`` + typed body (via
:func:`repro.server.errors.classify_exception`) on the wire.
"""

from __future__ import annotations

import pytest

from repro import (
    METHODS,
    GeoSocialEngine,
    QueryRequest,
    QueryService,
    SubscriptionRegistry,
    gowalla_like,
    save_engine,
)
from repro.datasets.synthetic import build_dataset
from repro.server import ServerClient, ServerThread
from repro.server.errors import classify_exception
from repro.utils.validation import COORDINATE_BOUND


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("error-parity", n=120, avg_degree=5.0, coverage=0.7, seed=5)


@pytest.fixture(scope="module")
def engine(dataset) -> GeoSocialEngine:
    return GeoSocialEngine.from_dataset(dataset, num_landmarks=4, s=5, seed=1)


@pytest.fixture(scope="module")
def service(engine):
    with QueryService(engine, cache_size=0) as svc:
        yield svc


@pytest.fixture(scope="module")
def handle(service):
    with ServerThread(service, workers=2) as h:
        yield h


@pytest.fixture()
def client(handle):
    with ServerClient(handle.host, handle.port) as c:
        yield c


@pytest.fixture(scope="module")
def located(engine) -> int:
    return sorted(engine.locations.located_users())[0]


@pytest.fixture(scope="module")
def unlocated(engine) -> int:
    return next(u for u in range(engine.graph.n) if not engine.locations.get(u))


CASES = [
    # (case id, request params, expected wire type, message fragment)
    ("k_zero", dict(k=0), "invalid_argument", "k must be >= 1"),
    ("k_negative", dict(k=-3), "invalid_argument", "k must be >= 1"),
    ("alpha_high", dict(k=5, alpha=2.0), "invalid_argument", "alpha must be in [0, 1]"),
    ("alpha_low", dict(k=5, alpha=-0.5), "invalid_argument", "alpha must be in [0, 1]"),
    ("alpha_nan", dict(k=5, alpha=float("nan")), "invalid_argument",
     "alpha must be in [0, 1], got nan"),
    ("bad_method", dict(k=5, method="warp"), "invalid_argument", "unknown method 'warp'"),
    # the retired bounded-error method is unknown at every alpha, the
    # endpoints (where it used to be routed) included
    ("approx_method", dict(k=5, method="approx"), "invalid_argument",
     "unknown method 'approx'"),
    ("approx_alpha0", dict(k=5, alpha=0.0, method="approx"), "invalid_argument",
     "unknown method 'approx'"),
    ("approx_alpha1", dict(k=5, alpha=1.0, method="approx"), "invalid_argument",
     "unknown method 'approx'"),
    # the figure-only variants are not served, under any alias
    ("variant_name", dict(k=5, method="ais-minus"), "invalid_argument",
     "unknown method 'ais-minus'"),
]


def _request_params(case_params: dict, user: int) -> dict:
    body = {"user": user}
    body.update(case_params)
    return body


@pytest.mark.parametrize("name,params,wire_type,fragment", CASES)
def test_parameter_errors_agree_across_layers(
    engine, service, client, located, name, params, wire_type, fragment
):
    messages = set()
    for path in (engine.query, service.query):
        with pytest.raises(ValueError) as excinfo:
            path(located, **params)
        messages.add(str(excinfo.value))
        assert fragment in str(excinfo.value)
    assert len(messages) == 1, f"in-process wordings diverge: {messages}"
    (message,) = messages
    status, _, body = client.request("POST", "/query", _request_params(params, located))
    assert status == 400
    assert body["error"]["type"] == wire_type
    assert body["error"]["message"] == message
    assert classify_exception(excinfo.value) == (400, wire_type)


def test_t_is_no_longer_a_query_parameter(engine, client, located):
    """``ais-cache`` left the served tier and took its list length
    with it: the request model has no ``t`` field, and a ``"t"`` key in
    a JSON body is refused like any other unknown field."""
    with pytest.raises(TypeError):
        QueryRequest(located, t=5)
    with pytest.raises(TypeError):
        engine.query(located, t=5)
    plain = client.request("POST", "/query", {"user": located, "method": "tsa"})
    assert plain[0] == 200 and "t" not in plain[2]["request"]
    status, _, body = client.request(
        "POST", "/query", {"user": located, "method": "tsa", "t": 5}
    )
    assert (status, body["error"]["type"]) == (400, "invalid_argument")
    assert "unknown request field 't'" in body["error"]["message"]


UNKNOWN_FIELDS = [
    # (case id, body beyond "user", the field the error must name)
    ("retired_budget", {"budget": 0.05}, "budget"),
    ("typo_k", {"kk": 5}, "kk"),
    ("typo_method", {"kk": 5, "methd": "spa"}, "kk"),
]


@pytest.mark.parametrize("name,extra,field", UNKNOWN_FIELDS)
def test_unknown_request_fields_are_refused_on_every_path(
    engine, service, client, located, name, extra, field
):
    """A typo'd or retired field used to be dropped silently, so
    ``{"user": 3, "kk": 5, "methd": "spa"}`` answered ``k=30`` with
    ``auto``.  The request model refuses it with one ``ValueError``
    naming the field; the wire answers that message as a typed 400 for
    ``/query``, for each object of ``/query/batch`` and for the batch's
    own top level; the keyword edges refuse it as Python does."""
    body = dict({"user": located}, **extra)
    with pytest.raises(ValueError) as excinfo:
        QueryRequest.from_payload(body)
    message = str(excinfo.value)
    assert f"unknown request field {field!r}" in message
    for path in (engine.query, service.query):
        with pytest.raises(TypeError):
            path(located, **extra)
    for route, payload in (
        ("/query", body),
        ("/query/batch", {"requests": [{"user": located}, body]}),
    ):
        status, _, reply = client.request("POST", route, payload)
        assert (status, reply["error"]["type"]) == (400, "invalid_argument"), route
        assert reply["error"]["message"] == message, route
    assert classify_exception(excinfo.value) == (400, "invalid_argument")
    status, _, reply = client.request(
        "POST", "/query/batch", dict({"requests": [{"user": located}]}, **extra)
    )
    assert (status, reply["error"]["type"]) == (400, "invalid_argument")
    assert f"unknown batch field {field!r}" in reply["error"]["message"]


BODY_UNKNOWN_FIELDS = [
    # (case id, route, body(user, root), the field the error must name,
    # the body's name in the error)
    ("location_typo", "/update/location",
     lambda user, root: {"user": user, "x": 0.5, "y": 0.5, "forgot": True},
     "forgot", "location update"),
    ("edge_typo", "/update/edge", lambda user, root: {"u": 3, "v": 4, "wieght": 3},
     "wieght", "edge update"),
    ("snapshot_typo", "/snapshot", lambda user, root: {"root": root, "flod": False},
     "flod", "snapshot"),
    ("restore_extra", "/restore", lambda user, root: {"root": root, "fold": True},
     "fold", "restore"),
]


@pytest.mark.parametrize("name,route,body,field,what", BODY_UNKNOWN_FIELDS)
def test_unknown_update_and_snapshot_fields_are_refused(
    engine, service, client, located, tmp_path, name, route, body, field, what
):
    """The update, snapshot and restore bodies used to drop a field they
    did not know: ``"forgot": true`` moved the user, ``"wieght"`` recorded
    the edge, ``"flod": false`` took a folding snapshot.  Each is now a
    typed 400 naming the field, and nothing is applied."""
    root = tmp_path / "snaps"
    where, pending = engine.locations.get(located), service.pending_edge_updates
    status, _, reply = client.request("POST", route, body(located, str(root)))
    assert (status, reply["error"]["type"]) == (400, "invalid_argument")
    assert f"unknown {what} field {field!r}" in reply["error"]["message"]
    assert engine.locations.get(located) == where
    assert service.pending_edge_updates == pending
    assert not root.exists()


@pytest.mark.parametrize("forget", ["no", 1, 0, None, "true"])
def test_forget_must_be_a_boolean(engine, client, located, forget):
    """``{"forget": "no"}`` used to erase the location (a truthy
    string); only a JSON boolean is a forget flag now."""
    where = engine.locations.get(located)
    status, _, reply = client.request(
        "POST", "/update/location", {"user": located, "forget": forget}
    )
    assert (status, reply["error"]["type"]) == (400, "invalid_argument")
    assert reply["error"]["message"] == f"forget must be a boolean, got {forget!r}"
    assert engine.locations.get(located) == where
    # false with coordinates is a plain move
    assert client.request(
        "POST", "/update/location", {"user": located, "x": where[0], "y": where[1], "forget": False}
    )[0] == 200
    assert engine.locations.get(located) == where


def test_unknown_subscribe_parameters_are_refused(handle, located):
    """``/subscribe`` takes the request fields as URL parameters and
    nothing else."""
    with ServerClient(handle.host, handle.port) as fresh:
        status, _, reply = fresh.request("GET", f"/subscribe?user={located}&kk=5")
    assert (status, reply["error"]["type"]) == (400, "invalid_argument")
    assert "unknown subscribe field 'kk'" in reply["error"]["message"]


def test_batch_top_level_takes_requests_and_request_defaults_only(client, located):
    """The batch body's top level carries ``requests`` and the request
    fields that default its members; a top-level ``user`` defaults
    nothing, so it is refused too."""
    ok = client.request(
        "POST", "/query/batch",
        {"requests": [{"user": located}], "k": 4, "alpha": 0.5, "method": "spa"},
    )
    assert ok[0] == 200 and ok[2]["responses"][0]["request"]["k"] == 4
    status, _, reply = client.request(
        "POST", "/query/batch", {"requests": [{"user": located}], "user": located}
    )
    assert (status, reply["error"]["type"]) == (400, "invalid_argument")
    assert "unknown batch field 'user'" in reply["error"]["message"]


def test_unknown_user_parity(engine, service, client):
    ghost = engine.graph.n + 7
    messages = set()
    for path in (engine.query, service.query):
        with pytest.raises(ValueError) as excinfo:
            path(ghost, k=5)
        messages.add(str(excinfo.value))
    assert len(messages) == 1
    (message,) = messages
    assert "out of range" in message
    status, _, body = client.request("POST", "/query", {"user": ghost, "k": 5})
    assert (status, body["error"]["type"]) == (400, "unknown_user")
    assert body["error"]["message"] == message
    assert classify_exception(excinfo.value) == (400, "unknown_user")


def test_unlocated_user_parity(engine, service, client, unlocated):
    messages = set()
    for path in (engine.query, service.query):
        with pytest.raises(ValueError) as excinfo:
            path(unlocated, k=5, alpha=0.3)
        messages.add(str(excinfo.value))
    assert len(messages) == 1
    (message,) = messages
    assert "no known location" in message
    status, _, body = client.request(
        "POST", "/query", {"user": unlocated, "k": 5, "alpha": 0.3}
    )
    assert (status, body["error"]["type"]) == (400, "unlocated_user")
    assert body["error"]["message"] == message
    assert classify_exception(excinfo.value) == (400, "unlocated_user")


def test_unlocated_user_is_fine_social_only(engine, service, client, unlocated):
    """``alpha == 1`` never consults the query user's location — all
    layers must *accept* the query, symmetrically with the rejection."""
    direct = engine.query(unlocated, k=5, alpha=1.0)
    via_service = service.query(unlocated, k=5, alpha=1.0)
    served = client.query(unlocated, k=5, alpha=1.0)
    assert served["result"]["users"] == direct.users == via_service.result.users


SERVED = [*METHODS, "auto"]


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("method", SERVED)
def test_every_method_rejects_an_unlocated_user_with_one_message(
    engine, service, client, unlocated, method, alpha
):
    """One rule for a query user with no location: below ``alpha == 1``
    every served name — the ones that used to answer an empty top-k and
    ``auto``, which used to borrow SPA's wording — raises the engine's
    one ``ValueError`` before any search, on every path."""
    expected = str(pytest.raises(ValueError, engine.query, unlocated, 5, 0.5, "bruteforce").value)
    assert "no known location" in expected
    for path in (engine.query, service.query):
        with pytest.raises(ValueError) as excinfo:
            path(unlocated, k=5, alpha=alpha, method=method)
        assert str(excinfo.value) == expected
    status, _, body = client.request(
        "POST", "/query", {"user": unlocated, "k": 5, "alpha": alpha, "method": method}
    )
    assert (status, body["error"]["type"]) == (400, "unlocated_user")
    assert body["error"]["message"] == expected


@pytest.mark.parametrize("method", SERVED)
def test_every_method_answers_an_unlocated_user_at_alpha_one(
    engine, service, client, unlocated, method
):
    direct = engine.query(unlocated, k=5, alpha=1.0, method=method)
    via_service = service.query(unlocated, k=5, alpha=1.0, method=method)
    served = client.query(unlocated, k=5, alpha=1.0, method=method)
    assert served["result"]["users"] == direct.users == via_service.result.users
    assert direct.users == engine.query(unlocated, 5, 1.0, "bruteforce").users


def test_a_subscription_for_an_unlocated_user_suspends_whatever_the_method(
    engine, unlocated
):
    """The stream layer suspends on the same message: ``bruteforce``
    (which used to hold an empty top-k) suspends like ``spa`` does."""
    with QueryService(engine, cache_size=0) as fresh:
        registry = SubscriptionRegistry(fresh)
        for method in ("bruteforce", "bounded", "spa", "auto"):
            sub = registry.subscribe(unlocated, k=5, alpha=0.5, method=method)
            assert sub.suspended and sub.result is None, method
            assert "no known location" in sub.error, method
            with pytest.raises(ValueError, match="no known location"):
                registry.result(sub)
        assert registry.stats.suspended == 4
        registry.close()


def test_batch_member_errors_do_not_poison_batch_mates(client, located, unlocated):
    """A bad request sent beside good ones as its own ``/query`` fails
    alone: the good requests still return 200.  (Batch endpoint
    semantics: the whole batch is rejected with the first member's
    error — per-request isolation applies to single ``/query``
    requests, each its own job.)"""
    status, _, body = client.request(
        "POST",
        "/query/batch",
        {"requests": [{"user": located}, {"user": unlocated}], "k": 5, "alpha": 0.3},
    )
    assert status == 400
    assert body["error"]["type"] == "unlocated_user"
    # the same pair as individual requests: one succeeds, one fails
    ok = client.query(located, k=5, alpha=0.3)
    assert ok["result"]["query_user"] == located
    status, _, body = client.request(
        "POST", "/query", {"user": unlocated, "k": 5, "alpha": 0.3}
    )
    assert (status, body["error"]["type"]) == (400, "unlocated_user")


def test_server_never_hides_message_detail(client, located):
    """The wire message is the library message verbatim — operators
    debugging a 400 see exactly what an in-process caller would."""
    status, _, body = client.request("POST", "/query", {"user": located, "k": "five"})
    assert status == 400
    assert body["error"]["type"] == "invalid_argument"
    assert "'five'" in body["error"]["message"]


def test_non_numeric_alpha_parity(engine, service, client, located):
    """A non-numeric alpha is rejected with the *number* wording (not a
    TypeError traceback) identically on every in-process path, and the
    wire model uses the same message for a string alpha in JSON."""
    messages = set()
    for path in (engine.query, service.query):
        with pytest.raises(ValueError) as excinfo:
            path(located, k=5, alpha="lots")
        messages.add(str(excinfo.value))
    assert messages == {"alpha must be a number, got 'lots'"}
    status, _, body = client.request(
        "POST", "/query", {"user": located, "k": 5, "alpha": "lots"}
    )
    assert (status, body["error"]["type"]) == (400, "invalid_argument")
    assert body["error"]["message"] == "alpha must be a number, got 'lots'"


# -- location updates: non-finite coordinates ---------------------------


@pytest.mark.parametrize(
    "x,y", [(float("inf"), 0.5), (0.5, float("-inf")), (float("nan"), 0.5)], ids=repr
)
def test_non_finite_coordinates_are_rejected_before_anything_is_written(
    engine, service, client, located, x, y
):
    """``move_user`` with ``inf``/``nan`` used to write the location
    table, then die in the grid's cell arithmetic *before* the
    listeners fired: index and result cache kept the pre-move world
    (and the wire answered 500).  Every path now rejects it up front
    with one ``ValueError`` — 400 on the wire — and table, cache and
    subscription are untouched."""
    with QueryService(engine, cache_size=8) as caching:
        registry = SubscriptionRegistry(caching)
        sub = registry.subscribe(located, k=3, alpha=0.3, method="tsa")
        warm = caching.query(located, k=3, alpha=0.3, method="tsa")
        before = engine.locations.get(located)
        messages = set()
        for move in (engine.move_user, service.move_user, caching.move_user):
            with pytest.raises(ValueError) as excinfo:
                move(located, x, y)
            messages.add(str(excinfo.value))
        assert len(messages) == 1, f"in-process wordings diverge: {messages}"
        (message,) = messages
        assert "must be a number in [-2**500, 2**500]" in message
        status, _, body = client.request(
            "POST", "/update/location", {"user": located, "x": x, "y": y}
        )
        assert (status, body["error"]["type"]) == (400, "invalid_argument")
        assert body["error"]["message"] == message
        assert engine.locations.get(located) == before
        again = caching.query(located, k=3, alpha=0.3, method="tsa")
        assert again.cached and again.result is warm.result
        snap = caching.stats.snapshot()
        assert snap["reused_entries"] == snap["invalidated_entries"] == 0
        assert not sub.dirty and registry.stats.location_updates == 0
        truth = engine.query(located, 3, 0.3, "bruteforce")
        assert registry.result(sub).users == again.result.users == truth.users
        registry.close()


# -- edge updates: ids and weights are checked before anything is recorded


EDGE_CASES = [
    # (case id, (u, v, weight) with N = population size, wire type, fragment)
    ("u_negative", (-1, 3, 0.5), "unknown_user", "user id -1 out of range"),
    ("v_negative", (3, -1, 0.5), "unknown_user", "user id -1 out of range"),
    ("u_past_end", ("N", 3, 0.5), "unknown_user", "out of range"),
    ("v_past_end", (3, "N", None), "unknown_user", "out of range"),
    ("self_loop", (3, 3, 0.5), "invalid_argument", "self-loops are not allowed"),
    ("weight_inf", (3, 4, float("inf")), "invalid_argument",
     "edge weight must be a number in [2**-480, 2**480], got inf"),
    ("weight_nan", (3, 4, float("nan")), "invalid_argument",
     "edge weight must be a number in [2**-480, 2**480], got nan"),
    ("weight_zero", (3, 4, 0.0), "invalid_argument",
     "edge weight must be a number in [2**-480, 2**480], got 0.0"),
    ("weight_negative", (3, 4, -2.0), "invalid_argument",
     "edge weight must be a number in [2**-480, 2**480], got -2.0"),
]


@pytest.mark.parametrize("name,edge,wire_type,fragment", EDGE_CASES)
def test_bad_edge_updates_are_rejected_before_anything_is_recorded(
    engine, service, client, name, edge, wire_type, fragment
):
    """``update_edge(-1, 3, w)`` used to wrap onto user n-1's adjacency
    (every later rebuild and folding snapshot then raised "adjacency
    asymmetric"), ``update_edge(n, 3, w)`` was an ``IndexError`` (500
    on the wire), and ``inf``/``nan`` weights poisoned the next
    rebuild.  Both paths now answer with one ``ValueError`` — 400 on
    the wire — and the log is untouched."""
    u, v, weight = (engine.graph.n if part == "N" else part for part in edge)
    pending = service.pending_edge_updates
    with pytest.raises(ValueError) as excinfo:
        service.update_edge(u, v, weight)
    message = str(excinfo.value)
    assert fragment in message
    status, _, body = client.request("POST", "/update/edge", {"u": u, "v": v, "weight": weight})
    assert (status, body["error"]["type"]) == (400, wire_type)
    assert body["error"]["message"] == message
    assert classify_exception(excinfo.value) == (400, wire_type)
    assert service.pending_edge_updates == pending


#: an integer literal no float holds (``float(HUGE)`` is an OverflowError)
HUGE = 10**400

HUGE_BODIES = [
    # (route, body for a located user, the message naming the field)
    ("/update/location", lambda u: {"user": u, "x": HUGE, "y": 0.5},
     f"x must be a number in [-2**500, 2**500], got {HUGE!r}"),
    ("/update/location", lambda u: {"user": u, "x": 0.5, "y": -HUGE},
     f"y must be a number in [-2**500, 2**500], got {-HUGE!r}"),
    ("/update/edge", lambda u: {"u": u, "v": u + 1, "weight": HUGE},
     f"edge weight must be a number in [2**-480, 2**480], got {HUGE!r}"),
]


@pytest.mark.parametrize("route,body,message", HUGE_BODIES, ids=["x", "y", "weight"])
def test_a_number_past_the_float_range_is_a_typed_400(
    engine, service, client, located, route, body, message
):
    """A coordinate used to overflow on the worker (500 ``internal``)
    and a weight on the event loop (the connection closed with no
    response).  Both are checked against the input domain while the
    body is parsed (the integer literal is compared with the bound,
    never passed to ``float()``): 400 ``invalid_argument`` naming the
    field, nothing written, and the connection keeps answering."""
    where, pending = engine.locations.get(located), service.pending_edge_updates
    status, _, reply = client.request("POST", route, body(located))
    assert (status, reply["error"]) == (400, {"type": "invalid_argument", "message": message})
    assert engine.locations.get(located) == where
    assert service.pending_edge_updates == pending
    assert client.request("GET", "/healthz")[0] == 200


def test_a_k_past_the_float_range_answers_on_a_cold_user(engine, client):
    """``k = 10**400`` used to overflow ``bounded``'s first-ball
    prediction: 500 ``internal`` for a user with no cached column."""
    cache = engine.social_cache
    user = next(u for u in sorted(engine.locations.located_users()) if not cache.contains_full(u))
    status, _, reply = client.request("POST", "/query", {"user": user, "k": HUGE, "alpha": 0.3})
    assert status == 200, reply
    assert reply["result"]["k"] == HUGE and reply["result"]["method"] == "bounded"
    assert reply["result"]["users"] == engine.query(user, HUGE, 0.3, "bruteforce").users


def test_moves_past_the_grid_span_answer_at_alpha_zero():
    """Two moves to x = ∓1e308 used to overflow the grid's span, and
    the first α = 0 query died in ``cell_of`` on a NaN: a
    ``ValueError`` for every method (α = 0 routes to SPA) and a 400 on
    the wire.  The input domain now refuses a coordinate past 2**500
    (a 400 naming the field), and moves to ∓2**500, far past the span
    the grid was built over, answer like ``bruteforce``."""
    bound = COORDINATE_BOUND
    engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
    far, user = engine.located_users()[:2].tolist()
    with QueryService(engine, cache_size=0) as svc, ServerThread(svc, workers=1) as h:
        with ServerClient(h.host, h.port) as wire:
            status, _, reply = wire.request(
                "POST", "/update/location", {"user": far, "x": -1e308, "y": 0.5}
            )
            assert (status, reply["error"]["type"]) == (400, "invalid_argument")
            assert reply["error"]["message"].startswith("x must be a number")
            for who, x in ((far, -bound), (user, bound)):
                body = {"user": who, "x": x, "y": 0.5}
                assert wire.request("POST", "/update/location", body)[0] == 200
            status, _, reply = wire.request("POST", "/query", {"user": user, "k": 5, "alpha": 0})
    assert status == 200, reply
    assert reply["result"]["users"] == engine.query(user, 5, 0.0, "bruteforce").users
    for alpha in (0.0, 0.3):
        truth = engine.query(user, 5, alpha, "bruteforce").users
        assert len(truth) == 5  # every distance is finite now
        for method in ("spa", "tsa", "tsa-qc", "ais", "bounded", "auto"):
            assert engine.query(user, 5, alpha, method).users == truth, (method, alpha)


def test_deleting_an_absent_edge_is_a_key_error_and_a_404(engine, service, client):
    u = 3
    v = next(w for w in range(engine.graph.n) if w != u and not engine.graph.has_edge(u, w))
    pending = service.pending_edge_updates
    with pytest.raises(KeyError):
        service.update_edge(u, v, None)
    status, _, body = client.request("POST", "/update/edge", {"u": u, "v": v, "weight": None})
    assert (status, body["error"]["type"]) == (404, "not_found")
    assert service.pending_edge_updates == pending


# -- validate once: QueryRequest is the only place the checks run ------


def test_numpy_scalars_are_accepted_identically_and_stored_as_builtins(
    engine, service, client, located
):
    """Ids and weights often come off NumPy columns.  Every in-process
    path accepts exactly what ``check_user/check_k/check_alpha`` accept
    — the service used to reject ``np.int64`` ids/k and ``np.float32``
    alphas the engine took — and the request stores builtin numbers,
    so cache keys and wire messages never carry NumPy scalars."""
    np = pytest.importorskip("numpy")
    user, k, alpha = np.int64(located), np.int64(5), np.float32(0.25)
    want = engine.query(located, k=5, alpha=float(alpha), method="spa")
    assert engine.query(user, k=k, alpha=alpha, method="spa").users == want.users
    response = service.query(user, k=k, alpha=alpha, method="spa")
    assert response.result.users == want.users
    request = response.request
    assert (type(request.user), type(request.k), type(request.alpha)) == (int, int, float)
    assert request == QueryRequest(located, k=5, alpha=float(alpha), method="spa")
    served = client.request("POST", "/query", request.payload())[2]
    assert served["result"]["users"] == want.users


TYPE_CASES = [
    # (case id, request params, the pinned message)
    ("user_word", dict(user="x"), "user must be an integer id, got 'x'"),
    ("user_bool", dict(user=True), "user must be an integer id, got True"),
    ("user_float", dict(user=1.5), "user must be an integer id, got 1.5"),
    ("k_bool", dict(k=True), "k must be an integer, got True"),
    ("k_float", dict(k=2.5), "k must be an integer, got 2.5"),
    ("alpha_bool", dict(alpha=True), "alpha must be a number, got True"),
    ("method_number", dict(method=7), "method must be a string, got 7"),
]


@pytest.mark.parametrize("name,params,message", TYPE_CASES)
def test_malformed_field_types_agree_across_layers(
    engine, service, client, located, name, params, message
):
    """Non-integer ``user``/``k``, non-numeric ``alpha`` and
    non-string ``method`` are rejected with one wording by the request model itself (it used to
    accept ``QueryRequest(user="x")`` silently), so the engine, the
    service and the wire all answer identically."""
    params = dict({"user": located}, **params)
    user = params.pop("user")
    with pytest.raises(ValueError) as excinfo:
        QueryRequest(user, **params)
    assert str(excinfo.value) == message
    for path in (engine.query, service.query):
        with pytest.raises(ValueError) as excinfo:
            path(user, **params)
        assert str(excinfo.value) == message
    status, _, body = client.request("POST", "/query", dict(params, user=user))
    assert status == 400
    assert body["error"]["type"] == "invalid_argument"
    assert body["error"]["message"] == message


# -- CLI parity: `repro query` maps malformed k/alpha/method to the
# -- engine's wording, exit code 1, no stack trace ----------------------

CLI_CASES = [
    # (case id, extra argv, the engine's pinned message)
    ("k_word", ["-k", "five"], "k must be an integer, got 'five'"),
    ("k_zero", ["-k", "0"], "k must be >= 1, got 0"),
    ("alpha_word", ["--alpha", "lots"], "alpha must be a number, got 'lots'"),
    ("alpha_nan", ["--alpha", "nan"], "alpha must be in [0, 1], got nan"),
    ("alpha_high", ["--alpha", "2.5"], "alpha must be in [0, 1], got 2.5"),
    ("approx_method", ["--method", "approx"], "unknown method 'approx'"),
]


@pytest.fixture(scope="module")
def engine_dir(engine, tmp_path_factory) -> str:
    return str(save_engine(engine, tmp_path_factory.mktemp("parity") / "engine.store"))


@pytest.fixture(scope="module")
def cli_runner():
    pytest.importorskip("click", reason="the CLI is an optional extra")
    from click.testing import CliRunner

    return CliRunner()


@pytest.mark.parametrize("name,argv,message", CLI_CASES)
def test_cli_malformed_parameters_match_engine_wording(
    cli_runner, engine_dir, handle, located, name, argv, message
):
    """`repro query` rejects malformed k/alpha/method with exactly the
    engine's message — locally and through --server — as a clean
    exit-1 error, never a click usage error or a traceback."""
    from repro.cli.commands import cli

    address = f"{handle.host}:{handle.port}"
    for target in (["--engine", engine_dir], ["--server", address]):
        result = cli_runner.invoke(cli, ["query", str(located), *target, *argv])
        assert result.exit_code == 1, result.output
        assert message in result.output
        assert "Traceback" not in result.output
        assert "Usage:" not in result.output
