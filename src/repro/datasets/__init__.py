"""Dataset substrate: synthetic geo-social networks and file loaders.

The paper evaluates on Gowalla (196K users), Foursquare (1.88M) and a
Singapore Twitter crawl (124K, average degree 57.7) — none of which is
redistributable here.  This package builds *calibrated synthetic
stand-ins*: power-law social graphs with matching average degree,
degree-product edge weights (the paper's weighting, Section 6),
clustered check-in-style locations with matching coverage ratios, plus
the Forest-Fire sampler and the correlation-controlled location
generators used by Figure 14.  Loaders for SNAP edge lists and
Gowalla-format check-in files let users plug in the real data when they
have it.
"""

from repro.datasets.forest_fire import forest_fire_sample
from repro.datasets.generators import erdos_renyi_edges
from repro.datasets.loaders import (
    load_checkins,
    load_edge_list,
    save_checkins,
    save_edge_list,
)
from repro.datasets.locations import (
    apply_coverage,
    clustered_locations,
    correlated_locations,
    permuted_locations,
)
from repro.datasets.synthetic import (
    GeoSocialDataset,
    build_dataset,
    correlated_dataset,
    forest_fire_series,
    foursquare_like,
    gowalla_like,
    twitter_like,
)

__all__ = [
    "erdos_renyi_edges",
    "clustered_locations",
    "apply_coverage",
    "correlated_locations",
    "permuted_locations",
    "forest_fire_sample",
    "load_edge_list",
    "save_edge_list",
    "load_checkins",
    "save_checkins",
    "GeoSocialDataset",
    "build_dataset",
    "gowalla_like",
    "foursquare_like",
    "twitter_like",
    "correlated_dataset",
    "forest_fire_series",
]
