"""Typed API errors and the exception → HTTP status contract.

Every error body has one shape::

    {"error": {"type": "<code>", "message": "<human text>"}}

and the mapping from library exceptions to status codes is defined in
exactly one place (:func:`classify_exception`), so the serving boundary
cannot drift from the library's exception contract: the three request
errors the engine raises as ``ValueError`` — invalid parameters,
unknown user id, unlocated query user — all surface as **400** with a
distinguishing ``type``, exactly as they surface as ``ValueError``
through ``engine.query`` and ``QueryService.query`` (pinned by
``tests/test_error_parity.py``).
"""

from __future__ import annotations

from repro.utils.validation import UnknownUserError, UnlocatedUserError

#: error codes carried in ``error.type``
BAD_REQUEST = "bad_request"          # malformed HTTP/JSON framing
INVALID_ARGUMENT = "invalid_argument"  # k/alpha/method out of contract
UNKNOWN_USER = "unknown_user"        # user id out of [0, n)
UNLOCATED_USER = "unlocated_user"    # query user has no known location
NOT_FOUND = "not_found"
METHOD_NOT_ALLOWED = "method_not_allowed"
OVERLOADED = "overloaded"            # admission queue full (429)
DEADLINE_EXCEEDED = "deadline_exceeded"  # request deadline fired (504)
SHUTTING_DOWN = "shutting_down"      # server is draining (503)
STORE = "store"                      # snapshot/restore request failed
STORE_CORRUPTION = "store_corruption"
INTERNAL = "internal"


class ApiError(Exception):
    """An error with a fixed HTTP status and body, raised by request
    parsing/validation inside the server."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def body(self) -> dict:
        return error_body(self.code, self.message)


def error_body(code: str, message: str) -> dict:
    return {"error": {"type": code, "message": message}}


def classify_exception(err: BaseException) -> tuple[int, str]:
    """``(status, error_type)`` for an exception escaping a handler.

    ``ValueError`` is the engine's request-rejection contract; its type
    distinguishes the three request-error families
    (:class:`~repro.utils.validation.UnknownUserError`,
    :class:`~repro.utils.validation.UnlocatedUserError`, any other
    ``ValueError``), and ``tests/test_error_parity.py`` pins this
    classification against all four call paths.
    """
    if isinstance(err, ApiError):
        return err.status, err.code
    if isinstance(err, UnknownUserError):
        return 400, UNKNOWN_USER
    if isinstance(err, UnlocatedUserError):
        return 400, UNLOCATED_USER
    if isinstance(err, ValueError):
        return 400, INVALID_ARGUMENT
    # store errors: corruption is a server-side 500, everything else a
    # caller mistake (missing snapshot root, nothing committed yet)
    try:
        from repro.store import StoreCorruptionError, StoreError
    except Exception:  # pragma: no cover - store always importable
        pass
    else:
        if isinstance(err, StoreCorruptionError):
            return 500, STORE_CORRUPTION
        if isinstance(err, StoreError):
            return 400, STORE
    if isinstance(err, KeyError):
        return 404, NOT_FOUND
    return 500, INTERNAL
