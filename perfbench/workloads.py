"""Every input of the benchmark, generated from ``--seed``.

The system under test receives only what this module produces: the
dataset, one op stream per workload, the Poisson arrival schedule of
``http_open``, and the subscription users of ``mixed_rw``.  Nothing
here imports ``repro.bench``; the only library call is the dataset
builder, and :func:`fingerprint` pins what it returned so a change to
``repro.datasets`` cannot silently move the numbers.

The dataset and the popularity ranking of its users are the same for
every seed (``gowalla_like(n, seed=DATASET_SEED)``, ranking shuffled
from ``DATASET_SEED``); the seed draws everything that is *sent*:
which users ask, in which order, with which variants, who moves where,
which edges change, when requests arrive.  A graph per seed was tried
first and put the graphs' differences into every spread (cold
``query_p50_ms`` ranged 14-27 ms over ten seeds against 18-22 ms on one
graph), which the bounds are not there to absorb.

Ops are plain tuples so they hash, compare and serialise trivially:

- ``("q", user, k, alpha)``  — one SSRQ (always ``method="auto"``, exact)
- ``("m", user, x, y)``      — one location update
- ``("e", u, v, weight)``    — one social-edge update (``None`` deletes)

All randomness is ``random.Random`` (Mersenne Twister streams are
stable across Python versions); every stream gets its own generator
seeded from ``(seed, purpose)`` so changing one workload's length never
shifts another's inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
import struct
from dataclasses import dataclass

#: ``cold_exact`` cycles through every pairing, so each timed run sees
#: the paper's whole ``k`` x ``alpha`` grid in equal shares
COLD_VARIANTS = tuple((k, a) for k in (10, 30, 50) for a in (0.1, 0.3, 0.5, 0.7, 0.9))
#: ``hot_zipf`` / ``mixed_rw`` / ``http_open`` draw uniformly from these
HOT_VARIANTS = tuple((k, a) for k in (10, 30) for a in (0.1, 0.3, 0.7))
ZIPF_EXPONENT = 1.2
#: reads per stratified block of the hot stream (a multiple of the
#: number of hot variants)
HOT_BLOCK = 120
#: write mix of ``mixed_rw`` (the remainder are reads)
MOVE_SHARE = 0.18
EDGE_SHARE = 0.04
#: slots per block of the mixed stream (the shares are whole numbers of it)
MIXED_BLOCK = 50
DATASET_SEED = 7
#: standing subscriptions of ``mixed_rw`` sit on the hottest users
SUBSCRIPTIONS = 16
SUBSCRIPTION_K = 10
SUBSCRIPTION_ALPHA = 0.3


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{purpose}")


@dataclass
class Inputs:
    """What one ``(seed, n)`` pair determines before any op count is
    chosen: the dataset facts the generators need and the Zipf ranking
    of the located users."""

    seed: int
    located: list      # located user ids, ascending
    ranked: list       # the same users in Zipf-rank order (hottest first)
    cum_weights: list  # cumulative Zipf weights over ``ranked``
    positions: dict    # user -> (x, y) at build time
    bbox: tuple        # (minx, miny, maxx, maxy)
    edges: list        # (u, v, weight) with u < v, ascending


def make_dataset(n: int):
    """The dataset every workload runs on (imported lazily so the pure
    generators below stay importable without ``repro``)."""
    from repro import gowalla_like

    return gowalla_like(n=n, seed=DATASET_SEED)


def inputs_from_dataset(dataset, seed: int) -> Inputs:
    locations = dataset.locations
    located = sorted(locations.located_users())
    ranked = list(located)
    # who is popular belongs to the population, not to the traffic
    # sample: the same users are hot for every seed
    _rng(DATASET_SEED, "zipf-rank").shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))]
    box = locations.bbox()
    edges = sorted((min(u, v), max(u, v), w) for u, v, w in dataset.graph.edges())
    return Inputs(
        seed=seed,
        located=located,
        ranked=ranked,
        cum_weights=list(itertools.accumulate(weights)),
        positions={u: tuple(map(float, locations.get(u))) for u in located},
        bbox=(box.minx, box.miny, box.maxx, box.maxy),
        edges=edges,
    )


def _zipf_user(inputs: Inputs, rng: random.Random) -> int:
    total = inputs.cum_weights[-1]
    return inputs.ranked[bisect.bisect_left(inputs.cum_weights, rng.random() * total)]


# -- op streams ---------------------------------------------------------


def cold_ops(inputs: Inputs, count: int) -> list:
    """``count`` queries, every query user distinct (a seed-shuffled
    pass over the located users), variants cycling the full grid."""
    if count > len(inputs.located):
        raise ValueError(
            f"cold stream of {count} ops needs that many located users, "
            f"have {len(inputs.located)}"
        )
    users = list(inputs.located)
    _rng(inputs.seed, "cold-users").shuffle(users)
    return [
        ("q", user, *COLD_VARIANTS[i % len(COLD_VARIANTS)])
        for i, user in enumerate(users[:count])
    ]


def hot_ops(inputs: Inputs, count: int) -> list:
    """``count`` Zipf(1.2) reads with a uniform hot variant each, drawn
    as a *stratified* sample in blocks of ``HOT_BLOCK``: a block's users
    are the Zipf quantiles of an evenly spaced lattice with a random
    shift (so every block carries the hot users in their exact
    proportions and a fresh pick of the tail), its variants are each
    hot variant equally often, and both are shuffled.  The stream is
    still Zipf x uniform op by op; what the blocks remove is the
    run-to-run variation in *how many* reads miss and how many of the
    misses are the dear variants, which moved ``ops_per_s`` by 7-11 %
    between seeds when every op was drawn on its own."""
    rng = _rng(inputs.seed, "hot-reads")
    total = inputs.cum_weights[-1]
    ops: list = []
    while len(ops) < count:
        shift = rng.random()
        users = [
            inputs.ranked[bisect.bisect_left(inputs.cum_weights, (i + shift) / HOT_BLOCK * total)]
            for i in range(HOT_BLOCK)
        ]
        variants = [HOT_VARIANTS[i % len(HOT_VARIANTS)] for i in range(HOT_BLOCK)]
        rng.shuffle(users)
        rng.shuffle(variants)
        ops.extend(("q", user, *variant) for user, variant in zip(users, variants))
    return ops[:count]


def mixed_ops(inputs: Inputs, warmup: int, count: int) -> list:
    """The ``hot_zipf`` read stream with writes spliced into the timed
    part: the first ``warmup`` ops are reads only, then every block of
    ``MIXED_BLOCK`` slots holds moves (18 %), edge updates (4 %) and the
    next reads of the stream in exactly those shares, in shuffled order
    (an edge update empties the caches, so their *number* in a run,
    17 +- 4 when every slot was drawn on its own, is not left to the
    draw).

    Moves jitter the user's *current* position (sigma = 1 % of the bbox
    side, clamped to the bbox; 1 in 20 teleports uniformly), so the
    generator tracks positions as it goes.  Edge updates add or reweigh
    a random located pair; 1 in 4 deletes an edge of the original
    graph (each at most once)."""
    reads = iter(hot_ops(inputs, warmup + count))
    ops = [next(reads) for _ in range(warmup)]
    rng = _rng(inputs.seed, "mixed-writes")
    minx, miny, maxx, maxy = inputs.bbox
    sx, sy = 0.01 * (maxx - minx), 0.01 * (maxy - miny)
    positions = dict(inputs.positions)
    deletable = list(inputs.edges)
    rng.shuffle(deletable)
    moves, edges = round(MOVE_SHARE * MIXED_BLOCK), round(EDGE_SHARE * MIXED_BLOCK)
    block = "m" * moves + "e" * edges + "q" * (MIXED_BLOCK - moves - edges)
    kinds: list = []
    while len(kinds) < count:
        shuffled = list(block)
        rng.shuffle(shuffled)
        kinds.extend(shuffled)
    for kind in kinds[:count]:
        if kind == "m":
            user = _zipf_user(inputs, rng)
            if rng.randrange(20) == 0:
                x, y = rng.uniform(minx, maxx), rng.uniform(miny, maxy)
            else:
                px, py = positions[user]
                x = min(maxx, max(minx, rng.gauss(px, sx)))
                y = min(maxy, max(miny, rng.gauss(py, sy)))
            positions[user] = (x, y)
            ops.append(("m", user, x, y))
        elif kind == "e":
            if rng.randrange(4) == 0 and deletable:
                u, v, _w = deletable.pop()
                ops.append(("e", u, v, None))
            else:
                u, v = rng.sample(inputs.located, 2)
                ops.append(("e", u, v, rng.uniform(0.1, 1.1)))
        else:
            ops.append(next(reads))
    return ops


def subscription_users(inputs: Inputs) -> list:
    return inputs.ranked[:SUBSCRIPTIONS]


def poisson_schedule(seed: int, rungs: "list[tuple[float, float]]") -> list:
    """Arrival offsets for rungs given as ``(rate_rps, duration_s)``:
    one ascending list per rung, in seconds from that rung's start.
    Each rung carries exactly ``round(rate * duration)`` arrivals placed
    as sorted uniforms — a Poisson process conditioned on its count, so
    the op count is fixed by the rates and the arrivals by the seed."""
    rng = _rng(seed, "poisson")
    return [
        sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))
        for rate, duration in rungs
    ]


# -- fingerprint --------------------------------------------------------


def _pack(values) -> bytes:
    # 1e-9 rounding: a real generator change moves values by far more,
    # a last-ulp libm difference between hosts by far less
    return b"".join(struct.pack("<q", round(v * 1e9)) for v in values)


def fingerprint(inputs: Inputs, streams: "dict[str, list]") -> str:
    """sha256 over the edges, the located coordinates, and the first
    200 ops of every workload's stream."""
    digest = hashlib.sha256()
    for u, v, w in inputs.edges:
        digest.update(struct.pack("<ii", u, v) + _pack([w]))
    for user in inputs.located:
        digest.update(struct.pack("<i", user) + _pack(inputs.positions[user]))
    for name in sorted(streams):
        digest.update(name.encode())
        for op in streams[name][:200]:
            digest.update(repr(_rounded(op)).encode())
    return digest.hexdigest()


def _rounded(op: tuple) -> tuple:
    return tuple(round(v, 9) if isinstance(v, float) else v for v in op)
