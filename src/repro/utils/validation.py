"""Argument validation helpers shared across the public API."""

from __future__ import annotations

import math as _math
import numbers as _numbers


def check_alpha(alpha: float) -> float:
    """Validate the social/spatial preference parameter ``alpha``.

    Non-numbers get their own wording (the wire model raises the same
    one), and NaN fails the chained range comparison.
    """
    if isinstance(alpha, bool) or not isinstance(alpha, _numbers.Real):
        raise ValueError(f"alpha must be a number, got {alpha!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")
    return float(alpha)


def check_k(k: int) -> int:
    """Validate a result-set size ``k`` (the wording every layer pins:
    the same messages ``TopKBuffer`` and the wire model raise)."""
    return check_size("k", k, minimum=1)


def check_size(name: str, value: int, minimum: int = 0) -> int:
    """Validate a count: an integer of at least ``minimum``.  NumPy
    integer scalars are accepted (they often arrive off columnar
    arrays); bools and non-integral values are not.  Cache capacities
    and byte budgets take the default minimum, where ``0`` turns the
    cache off."""
    if isinstance(value, bool) or not isinstance(value, _numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_fields(obj: dict, allowed: tuple, what: str = "request") -> None:
    """Refuse a wire object carrying a field outside ``allowed``, naming
    the first such field (a typo'd or retired field is an error, never a
    silent default)."""
    for name in obj:
        if name not in allowed:
            raise ValueError(f"unknown {what} field {name!r}; expected one of {allowed}")


def check_positive(name: str, value: float) -> float:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_user(user: int, n: int | None = None) -> int:
    """Validate a user/vertex identifier: an integer (NumPy integer
    scalars included, bools not), inside ``[0, n)`` when the population
    size ``n`` is known."""
    if isinstance(user, bool) or not isinstance(user, _numbers.Integral):
        raise ValueError(f"user must be an integer id, got {user!r}")
    if n is not None and not 0 <= user < n:
        raise ValueError(f"user id {user} out of range [0, {n})")
    return int(user)


def check_finite_point(x: float, y: float) -> None:
    """Validate a location update's new position: both coordinates
    finite.  ``inf`` overflows the grid's cell arithmetic *after* the
    location table was written, and ``nan`` is the table's own
    "unlocated" marker (forgetting a location has its own call)."""
    if not (_math.isfinite(x) and _math.isfinite(y)):
        raise ValueError(f"coordinates must be finite, got ({x!r}, {y!r})")


def check_method(method: str) -> str:
    """Validate that a method name is a string (whether it names a
    known method is the dispatcher's check — it owns the table)."""
    if not isinstance(method, str):
        raise ValueError(f"method must be a string, got {method!r}")
    return method
