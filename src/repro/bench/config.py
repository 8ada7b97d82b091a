"""Benchmark scale profiles.

The paper runs 1,000 random queries per data point on datasets of up to
1.88M users (C++).  Pure Python needs smaller defaults; the *shape* of
every result (method ordering, trends versus k/α/s, crossovers) is
preserved at these scales — see docs/BENCHMARKS.md ("Scale profiles").

Profiles (``python -m repro.bench --profile NAME``):

- ``smoke`` — seconds; tier-1 runs every driver at this scale
- ``quick`` — minutes; the command line's default
- ``full``  — the calibrated sizes; tens of minutes

Table 3 of the paper (query/system parameters) is mirrored here:
``k ∈ {10..50}`` (default 30), ``α ∈ {0.1..0.9}`` (default 0.3),
``s ∈ {5..25}`` (default 10), ``M = 8`` landmarks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BenchProfile:
    name: str
    gowalla_n: int
    foursquare_n: int
    twitter_n: int
    correlated_n: int
    #: Figure 14(b) sample sizes (paper: 0.6M / 1.2M / 1.8M)
    scale_sizes: tuple[int, ...]
    #: queries per data point (paper: 1000)
    queries: int
    #: queries per data point for the CH-backed variants (slower)
    ch_queries: int
    #: Figure 11 cached-list lengths (paper: 1K..10K)
    t_values: tuple[int, ...]
    #: reduced dataset sizes for the CH-variant comparison — per-settle
    #: CH evaluations are ~100x the cost of shared Dijkstra reads, the
    #: very effect Figure 8 reports; the ordering is scale-free
    ch_gowalla_n: int = 900
    ch_foursquare_n: int = 1400
    # Table 3 ranges
    k_values: tuple[int, ...] = (10, 20, 30, 40, 50)
    alpha_values: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    s_values: tuple[int, ...] = (5, 10, 15, 20, 25)
    default_k: int = 30
    default_alpha: float = 0.3
    default_s: int = 10
    num_landmarks: int = 8
    seed: int = 99


PROFILES = {
    "smoke": BenchProfile(
        name="smoke",
        gowalla_n=800,
        foursquare_n=1200,
        twitter_n=600,
        correlated_n=800,
        scale_sizes=(300, 600, 900),
        queries=3,
        ch_queries=2,
        ch_gowalla_n=400,
        ch_foursquare_n=600,
        t_values=(25, 50, 100),
        k_values=(10, 30, 50),
        alpha_values=(0.1, 0.5, 0.9),
        s_values=(5, 10, 20),
        num_landmarks=4,
    ),
    "quick": BenchProfile(
        name="quick",
        gowalla_n=3000,
        foursquare_n=7000,
        twitter_n=2500,
        correlated_n=4000,
        scale_sizes=(2000, 4000, 6000),
        queries=8,
        ch_queries=4,
        t_values=(50, 100, 200, 400),
    ),
    "full": BenchProfile(
        name="full",
        gowalla_n=12_000,
        foursquare_n=30_000,
        twitter_n=8_000,
        correlated_n=20_000,
        scale_sizes=(10_000, 20_000, 30_000),
        queries=30,
        ch_queries=8,
        ch_gowalla_n=1500,
        ch_foursquare_n=2500,
        t_values=(100, 200, 400, 600, 800, 1000),
    ),
}

