"""Benchmark datasets, engines and query workloads (built once, cached).

Engines are keyed by ``(dataset, s, M)`` so parameter sweeps (Figure 12
varies ``s``) can share datasets without rebuilding graphs, and the
drivers of one run reuse everything.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.config import BenchProfile
from repro.core.engine import GeoSocialEngine
from repro.datasets.synthetic import (
    GeoSocialDataset,
    correlated_dataset,
    forest_fire_series,
    foursquare_like,
    gowalla_like,
    twitter_like,
)
from repro.utils.rng import make_rng


def sample_query_users(
    dataset: GeoSocialDataset, count: int, seed: int = 0
) -> list[int]:
    """Random located query users (the paper issues random SSRQ
    queries; located because SSRQ with α < 1 requires a query point)."""
    located = list(dataset.locations.located_users())
    rng = make_rng(seed)
    if count >= len(located):
        return located
    return rng.sample(located, count)


#: the Zipf exponent of :func:`zipf_arrivals`
SKEW = 1.1


def zipf_arrivals(users: list[int], count: int, seed: int = 0) -> list[int]:
    """A ``count``-long arrival sequence over ``users``, Zipf-skewed.

    Users are ranked in a seed-shuffled order and user at rank ``r``
    arrives with probability ∝ ``1/(r+1)^SKEW`` — the classic model of
    repeat-heavy request traffic.

        >>> from repro.bench.workloads import zipf_arrivals
        >>> arrivals = zipf_arrivals([10, 20, 30, 40], count=100, seed=1)
        >>> len(arrivals), set(arrivals) <= {10, 20, 30, 40}
        (100, True)
    """
    if not users:
        raise ValueError("empty user population")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = make_rng(seed)
    ranked = list(users)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** SKEW for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=count)


@dataclass
class DatasetBundle:
    """A dataset with its engine and query workload."""

    dataset: GeoSocialDataset
    engine: GeoSocialEngine
    query_users: list[int]


#: kind -> (generator, the profile field holding its size)
_GENERATED = {
    "gowalla": (gowalla_like, "gowalla_n"),
    "foursquare": (foursquare_like, "foursquare_n"),
    "gowalla-ch": (gowalla_like, "ch_gowalla_n"),
    "foursquare-ch": (foursquare_like, "ch_foursquare_n"),
    "twitter": (twitter_like, "twitter_n"),
}


class _BundleCache:
    def __init__(self) -> None:
        self._datasets: dict[str, GeoSocialDataset] = {}
        self._engines: dict[tuple, GeoSocialEngine] = {}
        #: a correlated dataset's construction anchor (its query origin)
        self._anchors: dict[str, int] = {}

    def dataset(self, kind: str, profile: BenchProfile) -> GeoSocialDataset:
        key = f"{kind}:{profile.name}"
        ds = self._datasets.get(key)
        if ds is not None:
            return ds
        if kind in _GENERATED:
            build, size = _GENERATED[kind]
            ds = build(n=getattr(profile, size))
        elif kind.startswith("correlated-"):
            correlation = kind.split("-", 1)[1]
            ds, self._anchors[key] = correlated_dataset(correlation, n=profile.correlated_n)
        elif kind.startswith("scale-"):
            index = int(kind.split("-", 1)[1])
            base = self.dataset("foursquare", profile)
            sizes = [s for s in profile.scale_sizes if s <= base.graph.n]
            series = forest_fire_series(base, sizes, seed=profile.seed)
            for i, sub in enumerate(series):
                self._datasets[f"scale-{i}:{profile.name}"] = sub
            ds = self._datasets[key]
        else:
            raise ValueError(f"unknown dataset kind {kind!r}")
        self._datasets[key] = ds
        return ds

    def bundle(
        self,
        kind: str,
        profile: BenchProfile,
        s: int | None = None,
        queries: int | None = None,
    ) -> DatasetBundle:
        s = s if s is not None else profile.default_s
        ds = self.dataset(kind, profile)
        engine_key = (kind, profile.name, s, profile.num_landmarks)
        engine = self._engines.get(engine_key)
        if engine is None:
            engine = GeoSocialEngine(
                ds.graph,
                ds.locations,
                num_landmarks=min(profile.num_landmarks, ds.graph.n),
                s=s,
                seed=profile.seed,
            )
            self._engines[engine_key] = engine
        count = queries if queries is not None else profile.queries
        if kind.startswith("correlated-"):
            users = [self._anchors[f"{kind}:{profile.name}"]]  # the paper queries from it
        else:
            users = sample_query_users(ds, count, seed=profile.seed)
        return DatasetBundle(ds, engine, users)


_CACHE = _BundleCache()


def get_bundle(
    kind: str,
    profile: BenchProfile,
    s: int | None = None,
    queries: int | None = None,
) -> DatasetBundle:
    """Cached dataset+engine+workload for ``kind``:

    ``gowalla`` | ``foursquare`` | ``twitter`` |
    ``correlated-positive`` | ``correlated-independent`` |
    ``correlated-negative`` | ``scale-0`` / ``scale-1`` / ``scale-2``.
    """
    return _CACHE.bundle(kind, profile, s, queries)
