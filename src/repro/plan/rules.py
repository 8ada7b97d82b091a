"""The method table and the static routing rules read off it.

:data:`METHOD_TABLE` is the one place that says what the serving stack
knows about a processing method: one :class:`MethodSpec` row per served
name.  Everything else is a derivation — ``METHODS`` and
``FORWARD_DETERMINISTIC_METHODS`` (:mod:`repro.core.engine`),
``DELEGATED_METHODS`` (:mod:`repro.shard.engine`), ``DEFAULT_CANDIDATES``
(:mod:`repro.plan.planner`), the endpoint routing below and the social
column step (:mod:`repro.social.scan`) all read the row.  Adding a
method is one row here plus one builder in
``repro.core.engine.SEARCHER_BUILDERS``.

Two kinds of request resolve without consulting any cost model:

- **endpoint degeneration** — at ``alpha == 0`` an SSRQ is a pure
  spatial query and at ``alpha == 1`` a pure social one, so the
  requested method *must* be replaced by the one whose candidate stream
  is complete there (the row's ``alpha0`` / ``alpha1``);
- **explicit methods** — a concrete method name passes through
  :func:`route_method` unchanged away from the endpoints.

``method="auto"`` (:data:`AUTO`) is the only request the adaptive
planner (:mod:`repro.plan.planner`) decides: at the endpoints it takes
the same static route as everything else, in the interior it picks by
estimated cost.

This module is import-light on purpose (no :mod:`repro.core` imports),
so every layer can read the table without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the sentinel method name resolved per query by the adaptive planner
AUTO = "auto"


@dataclass(frozen=True)
class MethodSpec:
    """What the serving stack knows about one method.

        >>> from repro.plan.rules import METHOD_TABLE
        >>> METHOD_TABLE["tsa"].alpha0, METHOD_TABLE["tsa"].forward
        ('spa', True)
    """

    #: the method dispatched instead at ``alpha == 0`` (``None``: itself).
    #: The social term is gated off, so social-first streams route to
    #: SPA; ``approx`` has no social term left to approximate.
    alpha0: str | None = None
    #: the method dispatched instead at ``alpha == 1`` (``None``: itself).
    #: Unlocated users are legitimate pure-social answers but absent
    #: from the spatial indexes, so every index-based method routes to
    #: SFA, whose Dijkstra stream reaches them all.
    alpha1: str | None = None
    #: how the method uses the query user's cached social column
    #: (``None``: it cannot — its distances are not forward-Dijkstra
    #: values).  Every other value scans a cached column when there is
    #: one; on a miss, ``"stream"`` (the incremental searchers) enumerates
    #: a fresh forward expansion, promoted to a column if it exhausts;
    #: ``"exhaust"``: bruteforce needs every distance, so the kernel
    #: builds the column; ``"bounded"``: it expands a ball of the column
    #: itself and stores only an unbounded one.
    column: str | None = None
    #: the searcher rejects an unlocated query user before any social
    #: work, so the column step must leave the cache untouched for it
    needs_location: bool = False
    #: sharded engines run it on the delegate shard, never scattered
    #: (no spatial index involved: the shared graph and global location
    #: table make the answer globally exact)
    delegated: bool = False
    #: the planner considers it for ``auto`` by default
    candidate: bool = False

    @property
    def forward(self) -> bool:
        """Whether per-neighbor social distances are forward-Dijkstra
        values — deterministic functions of (graph, query, candidate),
        independent of evaluation schedule and location state, so a
        stored distance is bit-identical to what a fresh search would
        recompute.  Exactly the methods that can scan a social column;
        the update-stream layers repair results in place only for
        these.  (AIS evaluates bidirectionally: float association may
        differ by 1 ulp between schedules.)"""
        return self.column is not None


_TSA = MethodSpec(alpha0="spa", alpha1="sfa", column="stream", needs_location=True)

#: one row per served method, in the order ``METHODS`` lists them
METHOD_TABLE: dict[str, MethodSpec] = {
    # the paper's incremental algorithms: served by name and the static
    # endpoint routes, opt-in for ``auto``
    # (``AdaptivePlanner(candidates=(..., "tsa"))``) — since the
    # ``sssp_column`` kernel the two column arms below beat each of
    # them at every (n, alpha) measured (docs/BENCHMARKS.md, PR 24), so
    # calibration does not pay to time them
    "sfa": MethodSpec(alpha0="spa", column="stream", delegated=True),
    "spa": MethodSpec(alpha1="sfa", column="stream", needs_location=True),
    "tsa": _TSA,
    "tsa-qc": _TSA,
    "ais": MethodSpec(alpha1="sfa"),
    "approx": MethodSpec(alpha0="spa", delegated=True),
    # SFA's stopping rule as a kernel radius: ``sssp_column(limit=r)``
    # over the ball that can hold an answer + one dense scan; pure
    # social (alpha == 1) is just the case with no spatial column
    "bounded": MethodSpec(alpha0="spa", column="bounded", delegated=True, candidate=True),
    # "the column + one dense scan": with the ``sssp_column`` kernel a
    # full expansion costs less than most early-terminating ones at
    # bench scale, so the cost model is allowed to pick it
    "bruteforce": MethodSpec(column="exhaust", delegated=True, candidate=True),
}


def route_method(method: str, alpha: float) -> str:
    """The concrete method actually dispatched at preference ``alpha``.

    At the endpoints the requested method degenerates: ``alpha == 0``
    is a pure spatial query (social-first variants route to SPA) and
    ``alpha == 1`` a pure social one (index-based variants route to
    SFA, whose Dijkstra stream also reaches users without a location).
    Every dispatch path — ``GeoSocialEngine.query``, the sharded
    engine, the service layer's cache keys, and the stream layer's
    subscriptions — applies this same routing, so behavior at the
    endpoints is identical everywhere.

        >>> from repro.plan import route_method
        >>> route_method("tsa", 0.0), route_method("ais", 1.0)
        ('spa', 'sfa')
        >>> route_method("tsa", 0.3)
        'tsa'
    """
    if alpha != 0.0 and alpha != 1.0:
        return method
    spec = METHOD_TABLE.get(method)
    if spec is None:
        return method
    return (spec.alpha0 if alpha == 0.0 else spec.alpha1) or method


def static_choice(alpha: float) -> str | None:
    """The forced ``auto`` resolution at the preference endpoints, or
    ``None`` in the interior (where the cost model decides).

        >>> from repro.plan.rules import static_choice
        >>> static_choice(0.0), static_choice(1.0), static_choice(0.5)
        ('spa', 'sfa', None)
    """
    if alpha == 0.0:
        return "spa"
    if alpha == 1.0:
        return "sfa"
    return None
