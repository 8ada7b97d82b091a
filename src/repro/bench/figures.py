"""Experiment drivers: one function per table/figure of the paper.

Every driver returns a list of :class:`ExperimentTable` objects whose
rows correspond to the series the paper plots (x-axis value per row,
one column per method/statistic).  Absolute numbers differ from the
paper (Python vs C++, scaled datasets); what reproduces is the shape
(docs/BENCHMARKS.md, "Scale profiles").
"""

from __future__ import annotations

import math

from repro.bench.config import BenchProfile, get_profile
from repro.bench.reporting import ExperimentTable
from repro.bench.runner import jaccard, run_method
from repro.bench.variants import neighbor_cache
from repro.bench.workloads import get_bundle
from repro.graph.traversal import DijkstraIterator

MAIN_METHODS = ("sfa", "spa", "tsa", "tsa-qc", "ais")
CH_METHODS = ("sfa-ch", "spa-ch", "tsa-ch")
AIS_VERSIONS = ("ais-bid", "ais-minus", "ais")

_DATASET_LABELS = {"gowalla": "Gowalla-like", "foursquare": "Foursquare-like"}


# ---------------------------------------------------------------- Table 2


def table2(profile: BenchProfile | None = None) -> list[ExperimentTable]:
    """Table 2: dataset statistics."""
    profile = profile or get_profile()
    table = ExperimentTable(
        "Table 2",
        "Data statistics (calibrated synthetic stand-ins)",
        ["Name", "|V|", "|E|", "# locations", "Deg.", "Coverage"],
        notes="paper: Gowalla 196,590/1,900,654/107,092/9.7 — "
        "Foursquare 1,880,405/17,838,254/1,133,936/9.5 — Twitter 124K/deg 57.7",
    )
    for kind in ("gowalla", "foursquare", "twitter"):
        stats = get_bundle(kind, profile).dataset.stats()
        table.add_row(
            [
                stats["name"],
                stats["V"],
                stats["E"],
                stats["locations"],
                stats["avg_degree"],
                stats["coverage"],
            ]
        )
    return [table]


# ---------------------------------------------------------------- Figure 7


def fig7a(profile: BenchProfile | None = None) -> list[ExperimentTable]:
    """Figure 7(a): hops (weighted-shortest-path edges) to the furthest
    SSRQ result, AVG and MAX over queries, versus k."""
    profile = profile or get_profile()
    table = ExperimentTable(
        "Figure 7a",
        "Hop distance of the furthest SSRQ result vs k",
        ["k", "G. Avg. hop", "G. Max. hop", "F. Avg. hop", "F. Max. hop"],
        notes="paper: results reach up to ~8 hops; Foursquare deeper than Gowalla",
    )
    k_max = max(profile.k_values)
    per_dataset: dict[str, dict[int, tuple[float, int]]] = {}
    for kind in ("gowalla", "foursquare"):
        bundle = get_bundle(kind, profile)
        # One max-k query per user; smaller k results are prefixes.
        hops_per_k: dict[int, list[int]] = {k: [] for k in profile.k_values}
        for user in bundle.query_users:
            result = bundle.engine.query(
                user, k=k_max, alpha=profile.default_alpha, method="ais"
            )
            if not result.neighbors:
                continue
            social_tree = DijkstraIterator(bundle.engine.graph, user)
            for k in profile.k_values:
                prefix = result.neighbors[: min(k, len(result.neighbors))]
                furthest = prefix[-1].user
                if social_tree.run_until(furthest) == math.inf:
                    continue
                hops_per_k[k].append(len(social_tree.path_to(furthest)) - 1)
        per_dataset[kind] = {
            k: (sum(h) / len(h) if h else 0.0, max(h) if h else 0)
            for k, h in hops_per_k.items()
        }
    for k in profile.k_values:
        g_avg, g_max = per_dataset["gowalla"][k]
        f_avg, f_max = per_dataset["foursquare"][k]
        table.add_row([k, round(g_avg, 2), g_max, round(f_avg, 2), f_max])
    return [table]


def fig7b(profile: BenchProfile | None = None) -> list[ExperimentTable]:
    """Figure 7(b): Jaccard similarity of the SSRQ result versus pure
    social / pure spatial top-k, across α (Foursquare-like)."""
    profile = profile or get_profile()
    table = ExperimentTable(
        "Figure 7b",
        "SSRQ vs social-only and spatial-only top-k (Jaccard)",
        ["alpha", "vs. social", "vs. spatial"],
        notes="paper: Jaccard below 0.1 for all alpha — SSRQ is its own query type",
    )
    bundle = get_bundle("foursquare", profile)
    k = profile.default_k
    social_sets = {}
    spatial_sets = {}
    for user in bundle.query_users:
        social_sets[user] = set(bundle.engine.query(user, k=k, alpha=1.0, method="sfa").users)
        spatial_sets[user] = set(bundle.engine.query(user, k=k, alpha=0.0, method="spa").users)
    for alpha in profile.alpha_values:
        js, jd = [], []
        for user in bundle.query_users:
            ssrq = set(bundle.engine.query(user, k=k, alpha=alpha, method="ais").users)
            js.append(jaccard(ssrq, social_sets[user]))
            jd.append(jaccard(ssrq, spatial_sets[user]))
        table.add_row(
            [alpha, round(sum(js) / len(js), 4), round(sum(jd) / len(jd), 4)]
        )
    return [table]


# ---------------------------------------------------------------- Figure 8


def _sweep_k(
    kind: str,
    methods: tuple[str, ...],
    profile: BenchProfile,
    queries: int | None = None,
    experiment: str = "Figure 8",
    notes: str = "",
    with_pops: bool = True,
) -> list[ExperimentTable]:
    """One pass over (k, method); emits a run-time table and (optionally)
    the matching pop-ratio table."""
    label = _DATASET_LABELS.get(kind, kind)
    headers = ["k"] + [m.upper() for m in methods]
    time_table = ExperimentTable(
        experiment, f"running time (s) vs k in {label}", headers, notes=notes
    )
    pop_table = ExperimentTable(
        f"{experiment} (pop)", f"pop ratio vs k in {label}", headers, notes=notes
    )
    bundle = get_bundle(kind, profile, queries=queries)
    users = bundle.query_users if queries is None else bundle.query_users[:queries]
    for k in profile.k_values:
        time_row: list = [k]
        pop_row: list = [k]
        for method in methods:
            agg = run_method(bundle.engine, users, method, k=k, alpha=profile.default_alpha)
            time_row.append(agg.avg_time)
            pop_row.append(agg.pop_ratio)
        time_table.add_row(time_row)
        pop_table.add_row(pop_row)
    return [time_table, pop_table] if with_pops else [time_table]


def fig8(profile: BenchProfile | None = None, include_ch: bool = True) -> list[ExperimentTable]:
    """Figure 8: effect of k — run-time (a, b) and pop ratio (c, d) on
    both datasets.  The CH-backed variants (in the paper's run-time
    charts only) run on reduced instances: a per-evaluation CH query is
    orders of magnitude costlier than a shared-Dijkstra read in Python —
    the very effect the figure demonstrates — and the method ordering is
    scale-free."""
    profile = profile or get_profile()
    gowalla = _sweep_k("gowalla", MAIN_METHODS, profile)
    foursquare = _sweep_k("foursquare", MAIN_METHODS, profile)
    tables = [gowalla[0], foursquare[0], gowalla[1], foursquare[1]]
    if include_ch:
        ch_note = (
            "reduced scale for CH variants; vanilla methods re-measured "
            "on the same instance for a fair ratio"
        )
        for kind in ("gowalla-ch", "foursquare-ch"):
            tables.extend(
                _sweep_k(
                    kind, ("sfa", "spa", "tsa") + CH_METHODS, profile,
                    queries=profile.ch_queries, experiment="Figure 8 (CH)",
                    notes=ch_note, with_pops=False,
                )
            )
    return tables


# ---------------------------------------------------------------- Figure 9


def fig9(profile: BenchProfile | None = None) -> list[ExperimentTable]:
    """Figure 9: effect of α on run-time, both datasets."""
    profile = profile or get_profile()
    tables = []
    for kind in ("gowalla", "foursquare"):
        table = ExperimentTable(
            "Figure 9",
            f"running time (s) vs alpha in {_DATASET_LABELS[kind]}",
            ["alpha"] + [m.upper() for m in MAIN_METHODS],
            notes="paper: SFA/TSA improve with larger alpha, SPA degrades, AIS robust",
        )
        bundle = get_bundle(kind, profile)
        for alpha in profile.alpha_values:
            row = [alpha]
            for method in MAIN_METHODS:
                agg = run_method(
                    bundle.engine, bundle.query_users, method, k=profile.default_k, alpha=alpha
                )
                row.append(agg.avg_time)
            table.add_row(row)
        tables.append(table)
    return tables


# ---------------------------------------------------------------- Figure 10


def fig10(profile: BenchProfile | None = None) -> list[ExperimentTable]:
    """Figure 10: AIS-BID vs AIS− vs AIS (run-time and pop ratio)."""
    profile = profile or get_profile()
    notes = "paper: AIS-BID worst by far; delayed evaluation a moderate extra gain"
    tables = []
    for kind in ("gowalla", "foursquare"):
        headers = ["k", "AIS-BID", "AIS-", "AIS"]
        time_table = ExperimentTable(
            "Figure 10",
            f"running time (s) vs k in {_DATASET_LABELS[kind]} (AIS versions)",
            headers,
            notes=notes,
        )
        pop_table = ExperimentTable(
            "Figure 10 (pop)",
            f"pop ratio vs k in {_DATASET_LABELS[kind]} (AIS versions)",
            headers,
            notes=notes,
        )
        bundle = get_bundle(kind, profile)
        for k in profile.k_values:
            time_row: list = [k]
            pop_row: list = [k]
            for method in AIS_VERSIONS:
                agg = run_method(
                    bundle.engine, bundle.query_users, method, k=k,
                    alpha=profile.default_alpha,
                )
                time_row.append(agg.avg_time)
                pop_row.append(agg.pop_ratio)
            time_table.add_row(time_row)
            pop_table.add_row(pop_row)
        tables.extend([time_table, pop_table])
    return tables


# ---------------------------------------------------------------- Figure 11


def fig11(profile: BenchProfile | None = None) -> list[ExperimentTable]:
    """Figure 11: pre-computation (AIS-Cache) vs cache size t."""
    profile = profile or get_profile()
    tables = []
    for kind in ("gowalla", "foursquare"):
        table = ExperimentTable(
            "Figure 11",
            f"running time (s) vs t in {_DATASET_LABELS[kind]}",
            ["t", "AIS", "AIS-Cache", "fallback rate"],
            notes="paper: clear gain on the smaller graph, minor on the larger "
            "(deeper searches exhaust the cache)",
        )
        bundle = get_bundle(kind, profile)
        baseline = run_method(
            bundle.engine, bundle.query_users, "ais",
            k=profile.default_k, alpha=profile.default_alpha,
        )
        for t in profile.t_values:
            # Pre-computation is offline: build lists before timing.
            neighbor_cache(bundle.engine, t).prebuild(bundle.query_users)
            agg = run_method(
                bundle.engine, bundle.query_users, "ais-cache",
                k=profile.default_k, alpha=profile.default_alpha, t=t, keep_results=True,
            )
            fallbacks = sum(r.stats.extra.get("fallback", 0) for r in agg.results)
            table.add_row(
                [t, baseline.avg_time, agg.avg_time, round(fallbacks / agg.queries, 2)]
            )
        tables.append(table)
    return tables


# ---------------------------------------------------------------- Figure 12


def fig12(profile: BenchProfile | None = None) -> list[ExperimentTable]:
    """Figure 12: effect of grid granularity s."""
    profile = profile or get_profile()
    methods = ("spa", "ais-bid", "ais-minus", "ais")
    tables = []
    for kind in ("gowalla", "foursquare"):
        table = ExperimentTable(
            "Figure 12",
            f"running time (s) vs s in {_DATASET_LABELS[kind]}",
            ["s", "SPA", "AIS-BID", "AIS-", "AIS"],
            notes="paper: s=10 a good balance; methods not very sensitive",
        )
        for s in profile.s_values:
            bundle = get_bundle(kind, profile, s=s)
            row = [s]
            for method in methods:
                agg = run_method(
                    bundle.engine, bundle.query_users, method,
                    k=profile.default_k, alpha=profile.default_alpha,
                )
                row.append(agg.avg_time)
            table.add_row(row)
        tables.append(table)
    return tables


# ---------------------------------------------------------------- Figure 13


def fig13(profile: BenchProfile | None = None) -> list[ExperimentTable]:
    """Figure 13: the high-degree Twitter-like dataset, vs k and α."""
    profile = profile or get_profile()
    bundle = get_bundle("twitter", profile)
    by_k = ExperimentTable(
        "Figure 13a",
        "running time (s) vs k in Twitter-like (avg degree ~57.7)",
        ["k"] + [m.upper() for m in MAIN_METHODS],
        notes="paper: same trends; run-time grows less sharply with k (fewer hops needed)",
    )
    for k in profile.k_values:
        row = [k]
        for method in MAIN_METHODS:
            agg = run_method(bundle.engine, bundle.query_users, method, k=k, alpha=profile.default_alpha)
            row.append(agg.avg_time)
        by_k.add_row(row)
    by_alpha = ExperimentTable(
        "Figure 13b",
        "running time (s) vs alpha in Twitter-like",
        ["alpha"] + [m.upper() for m in MAIN_METHODS],
    )
    for alpha in profile.alpha_values:
        row = [alpha]
        for method in MAIN_METHODS:
            agg = run_method(bundle.engine, bundle.query_users, method, k=profile.default_k, alpha=alpha)
            row.append(agg.avg_time)
        by_alpha.add_row(row)
    return [by_k, by_alpha]


# ---------------------------------------------------------------- Figure 14


def fig14a(profile: BenchProfile | None = None) -> list[ExperimentTable]:
    """Figure 14(a): social/spatial correlation effect (queries issued
    from the construction anchor)."""
    profile = profile or get_profile()
    table = ExperimentTable(
        "Figure 14a",
        "running time (s) vs social-spatial correlation",
        ["correlation"] + [m.upper() for m in MAIN_METHODS],
        notes="paper: positive fastest, negative slowest, AIS best everywhere",
    )
    repeats = max(3, profile.queries // 2)
    for correlation in ("positive", "independent", "negative"):
        bundle = get_bundle(f"correlated-{correlation}", profile)
        users = bundle.query_users * repeats  # timing stability
        row = [correlation]
        for method in MAIN_METHODS:
            agg = run_method(
                bundle.engine, users, method, k=profile.default_k, alpha=profile.default_alpha
            )
            row.append(agg.avg_time)
        table.add_row(row)
    return [table]


def fig14b(profile: BenchProfile | None = None) -> list[ExperimentTable]:
    """Figure 14(b): scalability over Forest-Fire samples of the
    Foursquare-like network."""
    profile = profile or get_profile()
    table = ExperimentTable(
        "Figure 14b",
        "running time (s) vs |V| (Forest-Fire samples)",
        ["|V|"] + [m.upper() for m in MAIN_METHODS],
        notes="paper: near-linear growth for all; AIS scales most gracefully",
    )
    sizes = [s for s in profile.scale_sizes]
    for index, size in enumerate(sizes):
        bundle = get_bundle(f"scale-{index}", profile)
        row = [bundle.engine.graph.n]
        for method in MAIN_METHODS:
            agg = run_method(
                bundle.engine, bundle.query_users, method,
                k=profile.default_k, alpha=profile.default_alpha,
            )
            row.append(agg.avg_time)
        table.add_row(row)
    return [table]


def sharded(profile: BenchProfile | None = None) -> list[ExperimentTable]:
    """Sharded-engine scaling (not a paper figure: scatter-gather
    throughput and shard pruning versus shard count)."""
    from repro.bench.sharded_workload import sharded_scaling

    return sharded_scaling(profile)


ALL_EXPERIMENTS = {
    "table2": table2,
    "fig7a": fig7a,
    "fig7b": fig7b,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14a": fig14a,
    "fig14b": fig14b,
    "sharded": sharded,
}
