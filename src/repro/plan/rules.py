"""The method table and the static routing rules read off it.

:data:`METHOD_TABLE` is the one place that says what the serving stack
knows about a processing method: one :class:`MethodSpec` row per served
name.  Everything else is a derivation — ``METHODS`` and
``FORWARD_DETERMINISTIC_METHODS`` (:mod:`repro.core.engine`), the
endpoint routing below and the social column step
(:mod:`repro.social.scan`) all read the row.  Adding a method is one
row here plus one builder in ``repro.core.engine.SEARCHER_BUILDERS``.

Two kinds of request resolve by these rules alone:

- **endpoint degeneration** — at ``alpha == 0`` an SSRQ is a pure
  spatial query and at ``alpha == 1`` a pure social one, so a paper
  method whose candidate stream is incomplete there *must* be replaced
  by one whose stream is complete (the row's ``alpha0`` / ``alpha1``);
- **explicit methods** — a concrete method name passes through
  :func:`route_method` unchanged away from the endpoints.

``method="auto"`` (:data:`AUTO`) is resolved by the planner
(:mod:`repro.plan.planner`): SFA at ``alpha == 1``, ``bounded``
everywhere else (at ``alpha == 0`` off its k-d tree).

This module is import-light on purpose (no :mod:`repro.core` imports),
so every layer can read the table without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the sentinel method name resolved per query by the planner
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
    #: SPA.
    alpha0: str | None = None
    #: the method dispatched instead at ``alpha == 1`` (``None``: itself).
    #: Unlocated users are legitimate pure-social answers but absent
    #: from the spatial indexes, so every index-based method routes to
    #: SFA, whose Dijkstra stream reaches them all.
    alpha1: str | None = None
    #: whether per-neighbor social distances are forward-Dijkstra
    #: values — deterministic functions of (graph, query, candidate),
    #: independent of evaluation schedule and location state, so a
    #: stored distance is bit-identical to what a fresh search would
    #: recompute.  Exactly the methods that can answer off a cached
    #: social column; the update-stream layers repair results in place
    #: only for these.  (AIS evaluates bidirectionally: float
    #: association may differ by 1 ulp between schedules.)
    forward: bool = True


_TSA = MethodSpec(alpha0="spa", alpha1="sfa")

#: one row per served method, in the order ``METHODS`` lists them
METHOD_TABLE: dict[str, MethodSpec] = {
    # the paper's incremental algorithms: served by name and the static
    # endpoint routes — since the ``sssp_column`` kernel the two column
    # rows below beat each of them at every (n, alpha) measured
    # (docs/BENCHMARKS.md)
    "sfa": MethodSpec(alpha0="spa"),
    "spa": MethodSpec(alpha1="sfa"),
    "tsa": _TSA,
    "tsa-qc": _TSA,
    "ais": MethodSpec(alpha1="sfa", forward=False),
    # SFA's stopping rule as a kernel radius: ``sssp_column(limit=r)``
    # over the ball that can hold an answer + one dense scan (or the
    # full column when that ball would hold nearly everyone), and at
    # alpha == 0 the same rule over a k-d tree; what ``auto`` runs
    # below alpha == 1
    "bounded": MethodSpec(),
    # "the column + one dense scan": the exact reference
    "bruteforce": MethodSpec(),
}


def route_method(method: str, alpha: float) -> str:
    """The concrete method actually dispatched at preference ``alpha``.

    At the endpoints the requested method degenerates: ``alpha == 0``
    is a pure spatial query (social-first variants route to SPA) and
    ``alpha == 1`` a pure social one (index-based variants route to
    SFA, whose Dijkstra stream also reaches users without a location).
    Every dispatch path — ``GeoSocialEngine.query``, the service
    layer's cache keys, and the stream layer's subscriptions — applies
    this same routing, so behavior at the endpoints is identical
    everywhere.

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
    """The forced ``auto`` resolution: SFA at ``alpha == 1``, where no
    spatial index reaches the unlocated users a pure social answer
    holds; ``None`` below it.

        >>> from repro.plan.rules import static_choice
        >>> static_choice(0.0), static_choice(1.0), static_choice(0.5)
        (None, 'sfa', None)
    """
    return "sfa" if alpha == 1.0 else None
