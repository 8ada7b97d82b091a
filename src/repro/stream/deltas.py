"""Delta serialization for standing-query results.

The server's ``/subscribe`` stream sends one full ``snapshot`` event
when a subscription opens (or resumes) and then only *deltas*: what
entered, what left, and which surviving members changed score or rank.
This module owns that diff — it is pure data-plane code (two
:class:`~repro.core.result.SSRQResult` values in, one plain dict out),
so the wire format is testable without a socket and reusable by any
transport.

    >>> from repro import Neighbor, SSRQResult
    >>> from repro.stream.deltas import diff_results
    >>> old = SSRQResult(0, 2, 0.3, [Neighbor(1, 0.1, 0.2, 0.0),
    ...                              Neighbor(2, 0.2, 0.3, 0.1)])
    >>> new = SSRQResult(0, 2, 0.3, [Neighbor(1, 0.1, 0.2, 0.0),
    ...                              Neighbor(3, 0.15, 0.1, 0.2)])
    >>> delta = diff_results(old, new)
    >>> [nb["user"] for nb in delta["entered"]], delta["left"]
    ([3], [2])
    >>> diff_results(new, new) is None
    True
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.service.model import neighbor_payload, result_payload

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.result import SSRQResult

__all__ = ["diff_results", "subscription_payload"]


def diff_results(old: "SSRQResult | None", new: "SSRQResult") -> "dict | None":
    """The change from ``old`` to ``new``, or ``None`` when nothing
    observable changed (same members, same scores, same order).

    The delta names three member sets:

    - ``entered`` — full neighbour records newly in the top-k;
    - ``left`` — ids that dropped out;
    - ``moved`` — surviving members whose record (score, raw distances
      or rank position) changed.

    ``size`` and ``fk`` (the k-th score) ride along so a consumer can
    sanity-check its reconstructed state against the source.
    """
    if old is None:
        return None
    old_rank = {nb.user: (i, nb) for i, nb in enumerate(old.neighbors)}
    new_rank = {nb.user: (i, nb) for i, nb in enumerate(new.neighbors)}
    entered = [nb for nb in new.neighbors if nb.user not in old_rank]
    left = sorted(user for user in old_rank if user not in new_rank)
    moved = []
    for user, (i, nb) in new_rank.items():
        prior = old_rank.get(user)
        if prior is None:
            continue
        j, prev = prior
        if i != j or (prev.score, prev.social, prev.spatial) != (
            nb.score,
            nb.social,
            nb.spatial,
        ):
            moved.append((i, nb))
    if not entered and not left and not moved:
        return None
    return {
        "entered": [neighbor_payload(nb) for nb in entered],
        "left": left,
        "moved": [dict(neighbor_payload(nb), rank=i) for i, nb in sorted(moved)],
        "size": len(new.neighbors),
        "fk": new.fk,
    }


def subscription_payload(sub) -> dict:
    """A :class:`~repro.stream.subscription.Subscription`'s full state
    (the stream's ``snapshot``/``suspended`` event body)."""
    payload = {
        "user": sub.user,
        "k": sub.k,
        "alpha": sub.alpha,
        "method": sub.method,
        "suspended": sub.suspended,
        "noops": sub.noops,
        "repairs": sub.repairs,
        "recomputes": sub.recomputes,
    }
    if sub.suspended:
        payload["error"] = sub.error
    payload["result"] = result_payload(sub.result) if sub.result is not None else None
    return payload
