"""The one value a query's parameters travel as.

Definition 1 of the paper makes an SSRQ one tuple ``⟨u_q, k, α⟩``;
this codebase adds the processing ``method``.  :class:`QueryRequest` is
that tuple: the **only** place the defaults are written and the only
place the per-field checks run (each delegating to
:mod:`repro.utils.validation`, so every layer rejects a bad request with
one wording).  The engine, the planner, the service's cache keys and the
HTTP protocol all take or derive from it; the loose
``(user, k, alpha, method)`` spelling survives only at the public edges,
which fold it through :meth:`QueryRequest.coerce`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.utils.validation import (
    check_alpha,
    check_fields,
    check_k,
    check_method,
    check_user,
)

__all__ = ["QueryRequest"]


@dataclass(frozen=True)
class QueryRequest:
    """One SSRQ to answer.

    Hashable and immutable, so identical requests inside a batch can be
    deduplicated and the tuple of parameters can key the result cache.
    Fields are stored as builtin ``int``/``float`` whatever numeric
    type they arrived as (ids and weights often come off NumPy
    columns), so cache keys and wire messages never carry NumPy
    scalars.

        >>> from repro import QueryRequest
        >>> QueryRequest(user=42, k=10, alpha=0.3)
        QueryRequest(user=42, k=10, alpha=0.3, method='auto')
        >>> QueryRequest.coerce(42, k=10) == QueryRequest(42, k=10)
        True
    """

    user: int
    k: int = 30
    alpha: float = 0.3
    method: str = "auto"

    def __post_init__(self) -> None:
        put = object.__setattr__
        put(self, "user", check_user(self.user))
        put(self, "k", check_k(self.k))
        put(self, "alpha", check_alpha(self.alpha))
        check_method(self.method)

    @classmethod
    def coerce(
        cls,
        item: "int | QueryRequest",
        k: int | None = None,
        alpha: float | None = None,
        method: str | None = None,
    ) -> "QueryRequest":
        """The public edges' one normalisation: an existing request
        passes through unchanged; a plain user id becomes a request,
        with ``None`` for any parameter meaning "the default written on
        this class"."""
        if isinstance(item, QueryRequest):
            return item
        given = {"k": k, "alpha": alpha, "method": method}
        return cls(item, **{name: v for name, v in given.items() if v is not None})

    @classmethod
    def from_payload(cls, obj: dict, defaults: dict | None = None) -> "QueryRequest":
        """Build a request from a plain dict (the wire shape); omitted
        fields take their value from ``defaults`` (another such dict —
        a batch body's top level), then the class defaults.  A field this
        class does not have is refused, never ignored, so a typo cannot
        silently turn into a default.  Raises ``ValueError`` with the same
        wording contract every in-process path uses, so the HTTP layer
        maps parse failures and engine rejections identically.

            >>> from repro import QueryRequest
            >>> QueryRequest.from_payload({"user": 3, "k": 5})
            QueryRequest(user=3, k=5, alpha=0.3, method='auto')
            >>> QueryRequest.from_payload({"user": 3, "kk": 5})
            Traceback (most recent call last):
            ...
            ValueError: unknown request field 'kk'; expected one of ('user', 'k', 'alpha', 'method')
        """
        if not isinstance(obj, dict):
            raise ValueError(f"expected a request object, got {obj!r}")
        check_fields(obj, _FIELDS)
        if "user" not in obj:
            raise ValueError("request is missing required field 'user'")
        given = {name: defaults[name] for name in _FIELDS[1:] if name in (defaults or ())}
        given.update((name, obj[name]) for name in _FIELDS if name in obj)
        return cls(**given)

    def payload(self) -> dict:
        """The request as a plain dict — the wire shape, and what
        :meth:`from_payload` inverts."""
        return {name: getattr(self, name) for name in _FIELDS}


_FIELDS = tuple(f.name for f in fields(QueryRequest))
