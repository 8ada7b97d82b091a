"""Calibrated synthetic stand-ins for the paper's datasets.

Table 2 of the paper:

=========== ========= ============ ============ =====
Name        |V|       |E|          # locations  Deg.
=========== ========= ============ ============ =====
Gowalla     196,590   1,900,654    107,092      9.7
Foursquare  1,880,405 17,838,254   1,133,936    9.5
Twitter-SG  124,000   —            124,000      57.7
=========== ========= ============ ============ =====

Pure-Python shortest-path work is ~two orders of magnitude slower than
the authors' C++, so the default stand-ins scale node counts down
(Gowalla-like 12K, Foursquare-like 30K, Twitter-like 8K) while matching
the properties the experiments actually exercise: heavy-tailed degree
distribution, average degree, location coverage ratio, degree-product
edge weights, and clustered spatial placement.  Every builder takes
``n`` so benchmarks can scale up or down uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.forest_fire import forest_fire_sample
from repro.datasets.generators import barabasi_albert_array
from repro.datasets.locations import (
    apply_coverage,
    clustered_locations,
    correlated_locations,
    permuted_locations,
)
from repro.datasets.weights import degree_product_column
from repro.graph.socialgraph import SocialGraph
from repro.spatial.point import LocationTable


@dataclass
class GeoSocialDataset:
    """A social graph plus a (partial) user location table.

        >>> from repro import gowalla_like
        >>> dataset = gowalla_like(n=300, seed=7)
        >>> dataset.name, dataset.graph.n
        ('gowalla-like', 300)
        >>> sorted(dataset.stats()) == ['E', 'V', 'avg_degree', 'coverage', 'locations', 'name']
        True
    """

    name: str
    graph: SocialGraph
    locations: LocationTable

    def stats(self) -> dict:
        """Table 2-style statistics row."""
        return {
            "name": self.name,
            "V": self.graph.n,
            "E": self.graph.num_edges,
            "locations": self.locations.n_located,
            "avg_degree": round(self.graph.average_degree, 2),
            "coverage": round(self.locations.coverage, 3),
        }


def build_dataset(
    name: str,
    n: int,
    avg_degree: float,
    coverage: float = 1.0,
    clusters: int = 12,
    spread: float = 0.05,
    seed: int = 0,
) -> GeoSocialDataset:
    """Generic builder: BA graph at the requested average degree,
    degree-product weights, clustered locations masked to ``coverage``.

        >>> from repro import build_dataset
        >>> ds = build_dataset("demo", n=200, avg_degree=6.0, coverage=0.8, seed=1)
        >>> ds.graph.n, ds.locations.n_located
        (200, 160)
    """
    m_attach = max(1, round(avg_degree / 2))
    us, vs = barabasi_albert_array(n, m_attach, seed=seed).T
    graph = SocialGraph.from_edge_arrays(n, us, vs, degree_product_column(n, us, vs))
    locations = clustered_locations(n, clusters=clusters, spread=spread, seed=seed + 1)
    if coverage < 1.0:
        locations = apply_coverage(locations, coverage, seed=seed + 2)
    return GeoSocialDataset(name, graph, locations)


def gowalla_like(n: int = 12_000, seed: int = 7) -> GeoSocialDataset:
    """Gowalla stand-in: avg degree 9.7, 54.4% location coverage.

        >>> from repro import gowalla_like
        >>> round(gowalla_like(n=300, seed=7).locations.coverage, 3)
        0.543
    """
    return build_dataset("gowalla-like", n, avg_degree=9.7, coverage=0.544, seed=seed)


def foursquare_like(n: int = 30_000, seed: int = 11) -> GeoSocialDataset:
    """Foursquare stand-in: avg degree 9.5, 60.3% location coverage.

        >>> from repro import foursquare_like
        >>> foursquare_like(n=250, seed=11).name
        'foursquare-like'
    """
    return build_dataset("foursquare-like", n, avg_degree=9.5, coverage=0.603, seed=seed)


def twitter_like(n: int = 8_000, seed: int = 13) -> GeoSocialDataset:
    """Twitter-SG stand-in: avg degree 57.7, full location coverage
    (every user geo-tagged a tweet), tight urban clustering.

        >>> from repro import twitter_like
        >>> twitter_like(n=200, seed=13).locations.coverage
        1.0
    """
    return build_dataset(
        "twitter-like", n, avg_degree=57.7, coverage=1.0, clusters=20, spread=0.03, seed=seed
    )


def correlated_dataset(
    correlation: str,
    n: int = 20_000,
    seed: int = 17,
) -> tuple[GeoSocialDataset, int]:
    """Figure 14(a) datasets: Foursquare-like social distances with
    ``positive`` / ``independent`` / ``negative`` social-spatial
    correlation.  Returns the dataset and the anchor vertex queries
    should be issued from.

        >>> from repro import correlated_dataset
        >>> dataset, anchor = correlated_dataset("positive", n=200)
        >>> dataset.name, 0 <= anchor < dataset.graph.n
        ('correlated-positive', True)
    """
    base = build_dataset("correlated-base", n, avg_degree=9.5, coverage=1.0, seed=seed)
    anchor = max(range(base.graph.n), key=lambda v: (base.graph.degree(v), -v))
    if correlation == "positive":
        locations = correlated_locations(base.graph, anchor, rho=1.0, seed=seed + 3)
    elif correlation == "negative":
        locations = correlated_locations(base.graph, anchor, rho=-1.0, seed=seed + 3)
    elif correlation == "independent":
        locations = permuted_locations(
            correlated_locations(base.graph, anchor, rho=1.0, seed=seed + 3),
            seed=seed + 4,
        )
    else:
        raise ValueError(
            f"correlation must be positive/independent/negative, got {correlation!r}"
        )
    return GeoSocialDataset(f"correlated-{correlation}", base.graph, locations), anchor


def forest_fire_series(
    base: GeoSocialDataset,
    sizes: list[int],
    seed: int = 23,
) -> list[GeoSocialDataset]:
    """Figure 14(b): structure-preserving samples of ``base`` at the
    requested vertex counts (locations carried over per user).

        >>> from repro import build_dataset, forest_fire_series
        >>> base = build_dataset("demo", n=200, avg_degree=6.0, seed=1)
        >>> [d.graph.n for d in forest_fire_series(base, [50, 100], seed=3)]
        [50, 100]
    """
    series = []
    for size in sizes:
        if size > base.graph.n:
            raise ValueError(f"sample size {size} exceeds base |V|={base.graph.n}")
        if size == base.graph.n:
            series.append(GeoSocialDataset(f"{base.name}-{size}", base.graph, base.locations))
            continue
        subgraph, mapping = forest_fire_sample(base.graph, size, seed)
        locations = LocationTable.empty(size)
        for old, new in mapping.items():
            point = base.locations.get(old)
            if point is not None:
                locations.set(new, point[0], point[1])
        series.append(GeoSocialDataset(f"{base.name}-{size}", subgraph, locations))
    return series
