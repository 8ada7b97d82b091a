"""One input domain, every entry point (:mod:`repro.utils.validation`).

A coordinate, an edge weight and a normaliser are each checked once,
where they enter.  For every entry point, in-process and (for the move
and edge endpoints) over a ``ServerThread``: the value at each bound is
accepted, lands, and the engine answers every method like the
Definition 1 model in ``tests/model.py``; one ulp past it the value is
refused with a ``ValueError`` (a 400 on the wire) naming the field, or
a ``StoreCorruptionError`` naming the column.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.bounded import BoundedSearch
from repro.core.engine import AUTO, METHODS, GeoSocialEngine
from repro.core.ranking import Normalization
from repro.graph.socialgraph import SocialGraph
from repro.server import ServerClient, ServerThread
from repro.service import QueryRequest, QueryService
from repro.spatial.point import LocationTable
from repro.store import StoreCorruptionError, load_engine, save_engine
from repro.store.format import MANIFEST_NAME
from repro.utils.validation import (
    COORDINATE_BOUND,
    NORMALISER_MAX,
    NORMALISER_MIN,
    WEIGHT_MAX,
    WEIGHT_MIN,
)
from tests.model import Model
from tests.test_service_model import assert_answer

INF = math.inf

#: ``quantity -> ((value at the low bound, one ulp below it),
#: (value at the high bound, one ulp above it))``
BOUNDS = {
    "coordinate": ((-COORDINATE_BOUND, math.nextafter(-COORDINATE_BOUND, -INF)),
                   (COORDINATE_BOUND, math.nextafter(COORDINATE_BOUND, INF))),
    "weight": ((WEIGHT_MIN, math.nextafter(WEIGHT_MIN, 0.0)),
               (WEIGHT_MAX, math.nextafter(WEIGHT_MAX, INF))),
    "normaliser": ((NORMALISER_MIN, math.nextafter(NORMALISER_MIN, 0.0)),
                   (NORMALISER_MAX, math.nextafter(NORMALISER_MAX, INF))),
}

N = 6
EDGES = [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0), (3, 4, 0.25), (4, 5, 1.0), (0, 5, 2.0)]
#: the edge whose weight an entry point sets
EDGE = (2, 3)
XS = [u / 8 for u in range(N)]
YS = [(u % 3) / 4 for u in range(N)]
#: the user whose coordinate an entry point sets
MOVER = 2


def base_graph():
    return SocialGraph.from_edges(N, EDGES)


def base_engine(graph=None, locations=None, **kwargs):
    return GeoSocialEngine(
        graph or base_graph(),
        locations or LocationTable(XS, YS),
        num_landmarks=2, s=2, seed=1, **kwargs,
    )


def point(field, value):
    """The mover's new location: ``value`` in ``field``, the other
    coordinate as it was."""
    return (value, YS[MOVER]) if field == "x" else (XS[MOVER], value)


def columns(field, value):
    xs, ys = list(XS), list(YS)
    (xs if field == "x" else ys)[MOVER] = value
    return xs, ys


def weighted(value):
    return [(u, v, value if (u, v) == EDGE else w) for u, v, w in EDGES]


def csr_positions(graph):
    """Where edge :data:`EDGE` sits in ``graph``'s CSR, both directions."""
    return [
        int(graph.indptr[u]) + int(np.flatnonzero(graph.nbrs[graph.indptr[u]:graph.indptr[u + 1]] == v)[0])
        for u, v in (EDGE, EDGE[::-1])
    ]


def snapshot(tmp_path, edit):
    """Save the base engine, apply ``edit(path, manifest)`` and load it
    back unverified (the sha256 would catch the edit first)."""
    path = save_engine(base_engine(), tmp_path / "snap")
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    edit(path, manifest)
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))
    return load_engine(path, verify=False)


def rewrite(path: Path, name, change):
    column = np.load(path / f"{name}.npy")
    change(column)
    np.save(path / f"{name}.npy", column)


def over_the_wire(route, body, then=None):
    """POST ``body`` to a server over the base engine: the served engine
    after ``then(service)``, or the 400's message as a ``ValueError``."""
    with QueryService(base_engine(), cache_size=0) as service, ServerThread(service, workers=1) as handle:
        with ServerClient(handle.host, handle.port) as client:
            status, _, reply = client.request("POST", route, body)
        if status == 400:
            assert reply["error"]["type"] == "invalid_argument", reply
            raise ValueError(reply["error"]["message"])
        assert status == 200, reply
        if then is not None:
            then(service)
        return service.engine


def with_updated_edge(value):
    with QueryService(base_engine(), cache_size=0) as service:
        service.update_edge(*EDGE, value)
        return service.rebuild_engine()


def moved(mover):
    def move(field, value):
        engine = base_engine()
        with QueryService(engine, cache_size=0) as service:
            mover(engine, service, *point(field, value))
            return service.engine
    return move


def set_in_table(field, value):
    table = LocationTable(XS, YS)
    table.set(MOVER, *point(field, value))
    return base_engine(locations=table)


def from_csr(value):
    graph = base_graph()
    wts = graph.wts.copy()
    wts[csr_positions(graph)] = value
    return base_engine(SocialGraph.from_csr(N, graph.indptr, graph.nbrs, wts))


#: ``entry -> (quantity, build(field, value) -> engine, refusal regex
#: given the field)``: each regex names the field, or the column (and
#: the user, for a location, which is a pair)
ENTRIES = {
    "LocationTable": (
        "coordinate",
        lambda f, v: base_engine(locations=LocationTable(*columns(f, v))),
        lambda f: rf"^user {MOVER} has location",
    ),
    "LocationTable.adopt_columns": (
        "coordinate",
        lambda f, v: base_engine(locations=LocationTable.adopt_columns(*map(np.array, columns(f, v)))),
        lambda f: rf"^user {MOVER} has location",
    ),
    "LocationTable.set": ("coordinate", set_in_table, lambda f: rf"^{f} must be a number in"),
    "engine.move_user": (
        "coordinate",
        moved(lambda engine, service, x, y: engine.move_user(MOVER, x, y)),
        lambda f: rf"^{f} must be a number in",
    ),
    "service.move_user": (
        "coordinate",
        moved(lambda engine, service, x, y: service.move_user(MOVER, x, y)),
        lambda f: rf"^{f} must be a number in",
    ),
    "POST /update/location": (
        "coordinate",
        lambda f, v: over_the_wire(
            "/update/location", dict(zip("xy", point(f, v)), user=MOVER)
        ),
        lambda f: rf"^{f} must be a number in",
    ),
    "snapshot xs / ys": (
        "coordinate",
        lambda f, v, tmp: snapshot(
            tmp, lambda path, _: rewrite(path, f"{f}s", lambda c: c.__setitem__(MOVER, v))
        ),
        lambda f: rf"coordinate columns xs / ys are corrupt: user {MOVER} has location",
    ),
    "SocialGraph.from_edges": (
        "weight",
        lambda f, v: base_engine(SocialGraph.from_edges(N, weighted(v))),
        lambda f: r"^edge \(2, 3\) weight must be a number in",
    ),
    "SocialGraph.from_edge_arrays": (
        "weight",
        lambda f, v: base_engine(SocialGraph.from_edge_arrays(N, *zip(*weighted(v)))),
        lambda f: r"^edge \(2, 3\) weight must be a number in",
    ),
    "SocialGraph.from_csr": ("weight", lambda f, v: from_csr(v), lambda f: r"^CSR weight wts\[\d+\] must be"),
    "SocialGraph.with_edge_updates": (
        "weight",
        lambda f, v: base_engine(base_graph().with_edge_updates({EDGE: v})),
        lambda f: r"^edge \(2, 3\) weight must be a number in",
    ),
    "service.update_edge": (
        "weight", lambda f, v: with_updated_edge(v), lambda f: r"^edge weight must be a number in"
    ),
    "POST /update/edge": (
        "weight",
        lambda f, v: over_the_wire(
            "/update/edge", {"u": EDGE[0], "v": EDGE[1], "weight": v},
            then=lambda service: service.rebuild_engine(),
        ),
        lambda f: r"^edge weight must be a number in",
    ),
    "snapshot graph_wts": (
        "weight",
        lambda f, v, tmp: snapshot(
            tmp,
            lambda path, _: rewrite(
                path, "graph_wts", lambda c: c.__setitem__(csr_positions(base_graph()), v)
            ),
        ),
        lambda f: r"CSR columns are inconsistent: CSR weight wts\[\d+\] must be",
    ),
    "Normalization": (
        "normaliser",
        lambda f, v: base_engine(
            normalization=Normalization(**{"p_max": 3.0, "d_max": 1.0, f: v})
        ),
        lambda f: rf"^{f} must be 0 or a number in",
    ),
    "snapshot config": (
        "normaliser",
        lambda f, v, tmp: snapshot(
            tmp, lambda path, manifest: manifest["config"]["normalization"].__setitem__(f, v)
        ),
        lambda f: rf"bad config: {f} must be 0 or a number in",
    ),
}

#: the field each quantity's value goes in, at the low and the high side
FIELDS = {"coordinate": ("y", "x"), "weight": ("weight", "weight"), "normaliser": ("d_max", "p_max")}


def landed(engine, quantity, field, value) -> bool:
    if quantity == "coordinate":
        return engine.locations.get(MOVER) == point(field, value)
    if quantity == "weight":
        return engine.graph.edge_weight(*EDGE) == value
    return getattr(engine.normalization, field) == value


@pytest.mark.parametrize("past", [False, True], ids=["at", "past"])
@pytest.mark.parametrize("side", [0, 1], ids=["low", "high"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_one_domain_at_every_entry_point(entry, side, past, tmp_path):
    quantity, build, refusal = ENTRIES[entry]
    field = FIELDS[quantity][side]
    at, beyond = BOUNDS[quantity][side]
    value = beyond if past else at
    args = (field, value, tmp_path) if entry.startswith("snapshot") else (field, value)
    if past:
        kind = StoreCorruptionError if entry.startswith("snapshot") else ValueError
        with pytest.raises(kind, match=refusal(field)):
            build(*args)
        return
    engine = build(*args)
    assert landed(engine, quantity, field, value), entry
    model = Model.of_engine(engine)
    for user in range(N):
        for alpha in (0.0, 0.5, 1.0):
            want = model.answer(user, N, alpha)
            assert all(math.isfinite(score) for _, score in want)
            for method in METHODS + (AUTO,):
                request = QueryRequest(user, k=N, alpha=alpha, method=method)
                assert_answer(engine.query(request), want, request)


@pytest.mark.parametrize("side", [0, 1], ids=["low", "high"])
@pytest.mark.parametrize("field", ["x", "y"])
def test_alpha_0_reads_each_coordinate_bound_through_the_k_d_tree(field, side):
    """``auto`` at ``α = 0`` (and at an ``α`` whose social weight
    underflows to 0) after ``bounded``'s k-d tree is built: a user moved
    to the bound is a dirty user the tree's answer merges, and users
    moved to the bound past the rebuild bound are read from a rebuilt
    tree; every user and ``k`` ranks like the model.  Ten more users,
    located on a line past the base table, keep one dirty user under
    the rebuild bound (an eighth of the tree)."""
    at = BOUNDS["coordinate"][side][0]
    n = N + 10
    engine = base_engine(
        SocialGraph.from_edges(n, EDGES),
        LocationTable(XS + [u / 8 for u in range(N, n)], YS + [1.0] * (n - N)),
    )
    engine.query(0, 1, 0.0)  # builds the tree over the base table

    def ranks_like_the_model(dirty, rebuilt):
        model = Model.of_engine(engine)
        for user in range(n):
            for k in range(1, n + 1):
                for alpha in (0.0, 5e-324):
                    request = QueryRequest(user, k=k, alpha=alpha, method=AUTO)
                    result = engine.query(request)
                    extra = result.stats.extra
                    assert (extra["tree_dirty"], extra["tree_rebuilt"]) == (dirty, rebuilt)
                    assert_answer(result, model.answer(user, k, alpha), request)
                    dirty, rebuilt = (0, 0) if rebuilt else (dirty, rebuilt)

    engine.move_user(MOVER, *point(field, at))
    ranks_like_the_model(1, 0)
    for user in (0, 3, 5):  # four dirty users: past the bound of ⌊16 / 8⌋
        engine.move_user(user, *point(field, -at if user == 3 else at))
    ranks_like_the_model(4, 1)


@pytest.mark.parametrize(
    "tie",
    [
        # D_max = 4: a subnormal distance scores fl(d / 4) = 0, as a
        # co-located user does (at α = 5e-324 the social weight α / 4
        # underflows to 0 as well)
        (5e-324, 0.0, Normalization(p_max=4.0, d_max=4.0)),
        # D_max = 2**520: 2**-516 and 2**-516·(1 + 2**-39) both score
        # 2**-1036 (a subnormal score rounds to even), though the tree
        # tells their squares apart
        (2.0**-516 * (1 + 2.0**-39), 2.0**-516, Normalization(p_max=4.0, d_max=2.0**520)),
    ],
    ids=["underflow to 0", "subnormal rounding"],
)
def test_a_score_tie_past_the_k_th_distance_is_inside_the_ball(tie):
    """At ``α = 0`` user 0 lies farther from the query user than user 1
    but scores the same, so the smaller id wins.  The tree's ball is
    taken at the radius that the k-th *score* needs, not at the k-th
    distance, so user 0 is inside."""
    far, near, norm = tie
    locations = LocationTable([far, near, 0.0, 4.0], [0.0, 0.0, 0.0, 0.0])
    engine = GeoSocialEngine(
        SocialGraph.from_edges(4, [(0, 1, 4.0)]), locations, normalization=norm
    )
    for alpha in (0.0, 5e-324):
        request = QueryRequest(2, k=1, alpha=alpha, method=AUTO)
        result = engine.query(request)
        assert result.users == [0]
        assert_answer(result, Model.of_engine(engine).answer(2, 1, alpha), request)


def test_a_searcher_without_the_engine_s_tree_reads_its_table_as_it_is_now():
    """A :class:`BoundedSearch` built without a tree has nobody to mark
    one for it, so it answers ``α = 0`` from the table as it is at each
    query: after each write to the table, every located user and ``k``
    rank like the model."""
    engine = base_engine()
    locations = engine.locations
    bounded = BoundedSearch(engine.graph, locations, engine.normalization)
    at = BOUNDS["coordinate"][1][0]
    writes = [
        lambda: None,
        lambda: locations.set(MOVER, *point("x", at)),
        lambda: locations.set(0, XS[1], YS[1]),
        lambda: locations.clear(MOVER),
    ]
    for write in writes:
        write()
        model = Model.of_engine(engine)
        for user in locations.located_users():
            for k in range(1, N + 1):
                request = QueryRequest(user, k=k, alpha=0.0, method="bounded")
                result = bounded.search(user, k, 0.0)
                result.method = "bounded"
                assert_answer(result, model.answer(user, k, 0.0), request)
