"""Argument validation helpers shared across the public API, and the
input domain.

**The input domain.**  Every coordinate, edge weight and normaliser is
checked once, where it enters, against the constants below: one scalar
check per quantity, and a column check for coordinates and weights.
Inside the domain *every score is finite* for any ``n < 2**31``, so
Definition 1's ``(score, id)`` order is total:

1. ``|dx|, |dy| <= 2**501``: ``dx*dx + dy*dy <= 2**1003``, and a
   distance ``d <= 2**501.5``.
2. A shortest path sums under ``2**31`` weights of at most ``2**480``,
   rounding up by under ``(1 + 2**-53)**(2**31) < 1 + 2**-21``:
   ``p < 2**512``.
3. A nonzero normaliser is ``>= 2**-480``: a given one is checked; an
   estimated ``P_max`` is a path length, so at least one weight; an
   estimated ``D_max``, the location box's diagonal, is raised to
   ``NORMALISER_MIN`` when the box has extent but a smaller diagonal.
   A normaliser of 0 leaves its term unscaled (it divides by 1).
4. So each ranking weight, ``α / P_max`` or ``(1 − α) / D_max``, is
   ``<= 2**480``, each term ``<= 2**992``, and their sum is finite.

The rounding margins of a search that stops at a score ``θ``:

5. :func:`radius_for`: ``r₀ = fl(θ/w)`` has ``w·r₀ >= θ(1 − 2**-53)``
   and a normal float's ulp is ``>= 2**-53`` of it, so three ulps up
   ``w·r > θ(1 + 2**-53)``, past the midpoint to the float after a
   normal ``θ``: ``fl(w·r) > θ``, so everyone farther scores ``> θ``
   and a tie at ``θ`` is inside.  Subnormal ulps may not get there, and
   ``inf`` (everyone) is always safe.
6. :func:`tree_radius`: a k-d tree compares ``fl(fl(dx)² + fl(dy)²)``
   with the rounded square of the radius it is asked for.  Normal
   roundings are relative ``<= 2**-53``: four up on the left (``dx``
   twice, the square, the sum), six down on the right (this function's
   four operations, ``sqrt`` counted twice, and the tree's square), under
   ``2**-49`` in all, so widening the square by ``2**-43`` holds everyone
   within ``r``.  An underflow loses at most ``2**-1074`` at each of
   ``dx²``, ``dy²``, their sum and ``r²``: hence ``+ 2**-1072``.
"""

from __future__ import annotations

import math
import numbers as _numbers

import numpy as _np

#: a located user's coordinates lie in ``[-COORDINATE_BOUND, COORDINATE_BOUND]``
COORDINATE_BOUND = 2.0**500
#: every edge weight lies in ``[WEIGHT_MIN, WEIGHT_MAX]``
WEIGHT_MIN = 2.0**-480
WEIGHT_MAX = 2.0**480
#: a normaliser is 0 or lies in ``[NORMALISER_MIN, NORMALISER_MAX]``
NORMALISER_MIN = WEIGHT_MIN
NORMALISER_MAX = 2.0**520


def _in_range(value, lo: float, hi: float) -> bool:
    """Whether ``value`` is a real number (not a bool) in ``[lo, hi]``;
    NaN fails, and an ``int`` is compared exactly, never ``float()``-ed."""
    return not isinstance(value, bool) and isinstance(value, _numbers.Real) and lo <= value <= hi


def check_coordinate(name: str, value) -> float:
    """Check one coordinate (the field ``name``); returns a ``float``."""
    if not _in_range(value, -COORDINATE_BOUND, COORDINATE_BOUND):
        raise ValueError(f"{name} must be a number in [-2**500, 2**500], got {value!r}")
    return float(value)


def check_coordinate_columns(xs, ys) -> int:
    """:func:`check_coordinate` over two ``float64`` columns, where a NaN
    pair is "no location": the number of located users, or a
    ``ValueError`` naming the first user with a bad pair."""
    missing = _np.isnan(xs)
    bad = missing != _np.isnan(ys)
    bad |= _np.abs(xs) > COORDINATE_BOUND  # NaN compares False
    bad |= _np.abs(ys) > COORDINATE_BOUND
    if bad.any():
        user = int(_np.argmax(bad))
        raise ValueError(
            f"user {user} has location ({xs[user]}, {ys[user]}): a location is two "
            "numbers in [-2**500, 2**500], or NaN in both for none"
        )
    return int(missing.size - _np.count_nonzero(missing))


def check_weight(name: str, value) -> float:
    """Check one edge weight (``name`` says which); returns a ``float``."""
    if not _in_range(value, WEIGHT_MIN, WEIGHT_MAX):
        raise ValueError(f"{name} must be a number in [2**-480, 2**480], got {value!r}")
    return float(value)


def weight_faults(ws) -> "_np.ndarray":
    """The entries of a ``float64`` column :func:`check_weight` refuses."""
    return ~((ws >= WEIGHT_MIN) & (ws <= WEIGHT_MAX))


def check_normaliser(name: str, value) -> float:
    """Check ``p_max`` or ``d_max``: 0 or in range; returns a ``float``."""
    if not (_in_range(value, 0.0, 0.0) or _in_range(value, NORMALISER_MIN, NORMALISER_MAX)):
        raise ValueError(f"{name} must be 0 or a number in [2**-480, 2**520], got {value!r}")
    return float(value)


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


def check_method(method: str) -> str:
    """Validate that a method name is a string (whether it names a
    known method is the dispatcher's check — it owns the table)."""
    if not isinstance(method, str):
        raise ValueError(f"method must be a string, got {method!r}")
    return method


def radius_for(theta: float, w: float) -> float:
    """The first radius up from ``fl(theta / w)``, at most three ulps,
    with ``fl(w·r) > theta`` (point 5); ``inf`` in the subnormals."""
    radius = theta / w
    for _ in range(4):
        if w * radius > theta:
            return radius
        radius = math.nextafter(radius, math.inf)
    return math.inf


def tree_radius(radius: float) -> float:
    """The radius whose k-d tree ball holds everyone within ``radius`` (point 6)."""
    return math.sqrt(radius * radius * (1 + 2**-43) + 2**-1072)
