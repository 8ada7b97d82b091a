"""Error-path parity: every layer rejects a bad request the same way.

The engine's contract is ``ValueError`` with pinned wording for the
request-error families — invalid parameters (``k``/``alpha``/method),
unknown user id, unlocated query user.  This suite drives each family
through all four call paths:

1. ``engine.query`` (the paper's algorithms),
2. ``QueryService.query`` (the serving layer),
3. ``ShardedGeoSocialEngine.query`` (the scale-out layer),
4. the HTTP server (``POST /query``),

and asserts they agree: same exception type and message on the three
in-process paths, and the matching ``400`` + typed body (via
:func:`repro.server.errors.classify_exception`) on the wire.
"""

from __future__ import annotations

import pytest

from repro import (
    GeoSocialEngine,
    QueryRequest,
    QueryService,
    ShardedGeoSocialEngine,
    SubscriptionRegistry,
)
from repro.datasets.synthetic import build_dataset
from repro.server import ServerClient, ServerThread
from repro.server.errors import classify_exception


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("error-parity", n=120, avg_degree=5.0, coverage=0.7, seed=5)


@pytest.fixture(scope="module")
def engine(dataset) -> GeoSocialEngine:
    return GeoSocialEngine.from_dataset(dataset, num_landmarks=4, s=5, seed=1)


@pytest.fixture(scope="module")
def sharded(dataset):
    engine = ShardedGeoSocialEngine.from_dataset(dataset, n_shards=2, num_landmarks=4, s=5, seed=1)
    yield engine
    engine.close()


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
    ("budget_high", dict(k=5, budget=1.5), "invalid_argument",
     "budget must be in [0, 1]"),
    ("budget_negative", dict(k=5, budget=-0.1), "invalid_argument",
     "budget must be in [0, 1]"),
    ("budget_nan", dict(k=5, budget=float("nan")), "invalid_argument",
     "budget must be in [0, 1], got nan"),
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
    engine, sharded, service, client, located, name, params, wire_type, fragment
):
    messages = set()
    for path in (engine.query, service.query, sharded.query):
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
    assert classify_exception(ValueError(message)) == (400, wire_type)


def test_t_is_no_longer_a_query_parameter(engine, client, located):
    """``ais-cache`` left the served tier and took its list length
    with it: the request model has no ``t`` field, and a ``"t"`` key in
    a JSON body is ignored like any other unknown key."""
    with pytest.raises(TypeError):
        QueryRequest(located, t=5)
    with pytest.raises(TypeError):
        engine.query(located, t=5)
    plain = client.request("POST", "/query", {"user": located, "method": "tsa"})
    with_t = client.request("POST", "/query", {"user": located, "method": "tsa", "t": 5})
    assert with_t[0] == plain[0] == 200
    assert with_t[2]["request"] == plain[2]["request"] and "t" not in with_t[2]["request"]
    assert with_t[2]["result"]["users"] == plain[2]["result"]["users"]


def test_unknown_user_parity(engine, sharded, service, client):
    ghost = engine.graph.n + 7
    messages = set()
    for path in (engine.query, service.query, sharded.query):
        with pytest.raises(ValueError) as excinfo:
            path(ghost, k=5)
        messages.add(str(excinfo.value))
    assert len(messages) == 1
    (message,) = messages
    assert "out of range" in message
    status, _, body = client.request("POST", "/query", {"user": ghost, "k": 5})
    assert (status, body["error"]["type"]) == (400, "unknown_user")
    assert body["error"]["message"] == message
    assert classify_exception(ValueError(message)) == (400, "unknown_user")


def test_unlocated_user_parity(engine, sharded, service, client, unlocated):
    messages = set()
    for path in (engine.query, service.query, sharded.query):
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
    assert classify_exception(ValueError(message)) == (400, "unlocated_user")


def test_unlocated_user_is_fine_social_only(engine, service, client, unlocated):
    """``alpha == 1`` never consults the query user's location — all
    layers must *accept* the query, symmetrically with the rejection."""
    direct = engine.query(unlocated, k=5, alpha=1.0)
    via_service = service.query(unlocated, k=5, alpha=1.0)
    served = client.query(unlocated, k=5, alpha=1.0)
    assert served["result"]["users"] == direct.users == via_service.result.users


def test_batch_member_errors_do_not_poison_batch_mates(client, located, unlocated):
    """A bad request coalesced or batched with good ones fails alone:
    the good requests still return 200-equivalent entries.  (Batch
    endpoint semantics: the whole batch is rejected with the first
    member's error — per-member isolation applies to *coalesced
    singles*, which ride separate HTTP requests.)"""
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


def test_non_numeric_alpha_parity(engine, sharded, service, client, located):
    """A non-numeric alpha is rejected with the *number* wording (not a
    TypeError traceback) identically on every in-process path, and the
    wire model uses the same message for a string alpha in JSON."""
    messages = set()
    for path in (engine.query, service.query, sharded.query):
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
    engine, sharded, service, client, located, x, y
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
        before = engine.locations.get(located), sharded.locations.get(located)
        messages = set()
        for move in (engine.move_user, service.move_user, caching.move_user, sharded.move_user):
            with pytest.raises(ValueError) as excinfo:
                move(located, x, y)
            messages.add(str(excinfo.value))
        assert len(messages) == 1, f"in-process wordings diverge: {messages}"
        (message,) = messages
        assert "coordinates must be finite" in message
        status, _, body = client.request(
            "POST", "/update/location", {"user": located, "x": x, "y": y}
        )
        assert (status, body["error"]["type"]) == (400, "invalid_argument")
        assert body["error"]["message"] == message
        assert (engine.locations.get(located), sharded.locations.get(located)) == before
        again = caching.query(located, k=3, alpha=0.3, method="tsa")
        assert again.cached and again.result is warm.result
        assert caching.cache_info()["reused"] == caching.cache_info()["invalidated"] == 0
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
     "edge weight must be a positive finite number, got inf"),
    ("weight_nan", (3, 4, float("nan")), "invalid_argument",
     "edge weight must be a positive finite number, got nan"),
    ("weight_zero", (3, 4, 0.0), "invalid_argument",
     "edge weight must be a positive finite number, got 0.0"),
    ("weight_negative", (3, 4, -2.0), "invalid_argument",
     "edge weight must be a positive finite number, got -2.0"),
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
    assert classify_exception(ValueError(message)) == (400, wire_type)
    assert service.pending_edge_updates == pending


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
    engine, sharded, service, client, located
):
    """Ids and weights often come off NumPy columns.  Every in-process
    path accepts exactly what ``check_user/check_k/check_alpha`` accept
    — the service used to reject ``np.int64`` ids/k and ``np.float32``
    alphas the engine took — and the request stores builtin numbers,
    so cache keys and wire messages never carry NumPy scalars."""
    np = pytest.importorskip("numpy")
    user, k, alpha = np.int64(located), np.int64(5), np.float32(0.25)
    want = engine.query(located, k=5, alpha=float(alpha), method="spa")
    for path in (engine.query, sharded.query):
        assert path(user, k=k, alpha=alpha, method="spa").users == want.users
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
    ("budget_word", dict(budget="lots"), "budget must be a number, got 'lots'"),
    ("method_number", dict(method=7), "method must be a string, got 7"),
]


@pytest.mark.parametrize("name,params,message", TYPE_CASES)
def test_malformed_field_types_agree_across_layers(
    engine, sharded, service, client, located, name, params, message
):
    """Non-integer ``user``/``k``, non-numeric ``budget`` and
    non-string ``method`` are rejected with one wording by the request model itself (it used to
    accept ``QueryRequest(user="x")`` silently), so the engine, the
    service, the sharded engine and the wire all answer identically."""
    params = dict({"user": located}, **params)
    user = params.pop("user")
    with pytest.raises(ValueError) as excinfo:
        QueryRequest(user, **params)
    assert str(excinfo.value) == message
    for path in (engine.query, service.query, sharded.query):
        with pytest.raises(ValueError) as excinfo:
            path(user, **params)
        assert str(excinfo.value) == message
    status, _, body = client.request("POST", "/query", dict(params, user=user))
    assert status == 400
    assert body["error"]["type"] == "invalid_argument"
    assert body["error"]["message"] == message


# -- CLI parity (satellite: `repro query` maps malformed k/alpha/budget
# -- to the engine's wording, exit code 1, no stack trace) -------------

CLI_CASES = [
    # (case id, extra argv, the engine's pinned message)
    ("k_word", ["-k", "five"], "k must be an integer, got 'five'"),
    ("k_zero", ["-k", "0"], "k must be >= 1, got 0"),
    ("alpha_word", ["--alpha", "lots"], "alpha must be a number, got 'lots'"),
    ("alpha_nan", ["--alpha", "nan"], "alpha must be in [0, 1], got nan"),
    ("alpha_high", ["--alpha", "2.5"], "alpha must be in [0, 1], got 2.5"),
    ("budget_word", ["--budget", "much"], "budget must be a number, got 'much'"),
    ("budget_high", ["--budget", "1.5"], "budget must be in [0, 1], got 1.5"),
]


@pytest.fixture(scope="module")
def engine_dir(engine, tmp_path_factory) -> str:
    return str(engine.save(tmp_path_factory.mktemp("parity") / "engine.store"))


@pytest.fixture(scope="module")
def cli_runner():
    pytest.importorskip("click", reason="the CLI is an optional extra")
    from click.testing import CliRunner

    return CliRunner()


@pytest.mark.parametrize("name,argv,message", CLI_CASES)
def test_cli_malformed_parameters_match_engine_wording(
    cli_runner, engine_dir, handle, located, name, argv, message
):
    """`repro query` rejects malformed k/alpha/budget with exactly the
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
