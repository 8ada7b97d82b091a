"""Location assignment for synthetic geo-social datasets.

Check-in datasets are spatially *clustered* (cities, venues), so the
default generator draws locations from a Gaussian mixture over the unit
square.  :func:`apply_coverage` blanks a fraction of users to mimic the
paper's privacy-constrained datasets (54.4% of Gowalla users and 60.3%
of Foursquare users have locations; the rest are "infinitely far").

For Figure 14(a), :func:`correlated_locations` implements the paper's
construction: the spatial distance of user ``u`` from an anchor vertex
is ``d̄ = ρ·p(anchor, u) + ε`` with ``ρ = ±1`` and noise
``ε ∈ [−0.15, 0.15]``, normalised to [0, 1], and the user is placed at
a uniformly random angle on the circle of radius ``d̄`` around the
anchor.  ``ρ = 1`` gives positively correlated social/spatial
proximity, ``ρ = −1`` negatively correlated;
:func:`permuted_locations` produces the *independent* control by
shuffling an existing assignment.
"""

from __future__ import annotations

import math

from repro.backend import resolve_backend
from repro.graph.socialgraph import SocialGraph
from repro.spatial.point import LocationTable
from repro.utils.rng import make_rng
from repro.utils.validation import check_probability

INF = math.inf


def uniform_locations(n: int, seed: int = 0) -> LocationTable:
    """Uniform locations over the unit square."""
    rng = make_rng(seed)
    xs = [rng.random() for _ in range(n)]
    ys = [rng.random() for _ in range(n)]
    return LocationTable.from_columns(xs, ys)


def clustered_locations(
    n: int,
    clusters: int = 12,
    spread: float = 0.05,
    seed: int = 0,
) -> LocationTable:
    """Gaussian-mixture ("cities") locations over the unit square.

    Cluster centres are uniform; per-user coordinates are normal around
    a randomly chosen centre with standard deviation ``spread``, clamped
    to [0, 1].
    """
    if clusters < 1:
        raise ValueError(f"need at least one cluster, got {clusters}")
    if spread <= 0:
        raise ValueError(f"spread must be positive, got {spread}")
    rng = make_rng(seed)
    centers = [(rng.random(), rng.random()) for _ in range(clusters)]
    # Zipf-ish cluster popularity: big cities attract more users.
    popularity = [1.0 / (i + 1) for i in range(clusters)]
    total = sum(popularity)
    cumulative = []
    acc = 0.0
    for p in popularity:
        acc += p / total
        cumulative.append(acc)

    def pick_center() -> tuple[float, float]:
        r = rng.random()
        for i, threshold in enumerate(cumulative):
            if r <= threshold:
                return centers[i]
        return centers[-1]

    xs = []
    ys = []
    for _ in range(n):
        cx, cy = pick_center()
        xs.append(min(1.0, max(0.0, rng.gauss(cx, spread))))
        ys.append(min(1.0, max(0.0, rng.gauss(cy, spread))))
    return LocationTable.from_columns(xs, ys)


def apply_coverage(locations: LocationTable, coverage: float, seed: int = 0) -> LocationTable:
    """Return a copy where only a ``coverage`` fraction of users keep
    their location (the rest become unknown/infinitely far)."""
    check_probability("coverage", coverage)
    n = len(locations)
    rng = make_rng(seed)
    keep = set(rng.sample(range(n), int(round(coverage * n))))
    table = locations.copy()
    for user in range(n):
        if user not in keep:
            table.clear(user)
    return table


def permuted_locations(locations: LocationTable, seed: int = 0) -> LocationTable:
    """Shuffle which user holds which location (Figure 14a's
    *independent* dataset): the spatial distribution is identical but
    any social/spatial correlation is destroyed."""
    n = len(locations)
    rng = make_rng(seed)
    known = [(locations.xs[u], locations.ys[u]) for u in locations.located_users()]
    rng.shuffle(known)
    holders = list(locations.located_users())
    table = LocationTable.empty(n)
    for user, (x, y) in zip(holders, known):
        table.set(user, x, y)
    return table


def correlated_locations(
    graph: SocialGraph,
    anchor: int,
    rho: float = 1.0,
    noise: float = 0.15,
    seed: int = 0,
) -> LocationTable:
    """Figure 14(a) construction: spatial distance from the ``anchor``
    correlates (``rho = 1``) or anti-correlates (``rho = -1``) with
    social distance from it.

    Vertices unreachable from the anchor receive no location (their
    social distance is undefined).  The anchor sits at the centre
    (0.5, 0.5); radii are normalised to [0, 0.5] so the whole circle
    family stays within the unit square.
    """
    if rho == 0:
        raise ValueError("rho must be non-zero; use permuted_locations for independence")
    rng = make_rng(seed)
    column = resolve_backend().sssp_column(graph, anchor)
    # in Dijkstra settle order — (distance, id) ascending — which is the
    # order the noise and angle draws below have always been dealt in
    finite = {
        v: float(p)
        for p, v in sorted((p, v) for v, p in enumerate(column) if p != INF)
    }
    if not finite:
        raise ValueError(f"anchor {anchor} reaches no vertex")
    p_max = max(finite.values()) or 1.0

    table = LocationTable.empty(graph.n)
    raw: dict[int, float] = {}
    for v, p in finite.items():
        raw[v] = rho * (p / p_max) + rng.uniform(-noise, noise)
    lo = min(raw.values())
    hi = max(raw.values())
    span = (hi - lo) or 1.0
    cx = cy = 0.5
    for v, value in raw.items():
        radius = 0.5 * (value - lo) / span
        angle = rng.uniform(0.0, 2.0 * math.pi)
        table.set(v, cx + radius * math.cos(angle), cy + radius * math.sin(angle))
    # Anchor at the centre regardless of noise.
    table.set(anchor, cx, cy)
    return table
