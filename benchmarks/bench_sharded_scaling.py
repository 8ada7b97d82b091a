"""Sharded engine scaling: throughput and pruned-shard fraction versus
shard count on the Zipf-skewed service workload.

Not a paper figure — this benchmarks `repro.shard`'s scatter-gather
engine. Each case serves the same arrival sequence (no result cache);
the interesting numbers are the speedup over the 1-shard configuration,
the pruning rate the shard-level MINF bound achieves, and — for the
mixed read/update scenario — whether the warm process pool absorbed the
update stream as shipped deltas instead of cold re-forks.

Run as pytest-benchmark cases::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded_scaling.py

or standalone (prints the scaling tables, asserts the acceptance gates,
and writes the tracked ``BENCH_sharded.json`` baseline; gates: nonzero
pruning always; cold re-forks <= 1 under the update stream whenever
fork exists; >=3x at 4 shards whenever the machine has the >=4 cores
that give shard parallelism real margin)::

    PYTHONPATH=src python benchmarks/bench_sharded_scaling.py
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.bench.sharded_workload import (
    build_sharded_engine,
    run_sharded_mixed,
    run_sharded_point,
    sharded_scaling,
)
from repro.bench.workloads import get_bundle, zipf_arrivals

SHARD_CASES = [1, 2, 4, 8]

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _workload(profile):
    bundle = get_bundle("gowalla", profile)
    located = list(bundle.dataset.locations.located_users())
    arrivals = zipf_arrivals(
        located, count=max(profile.queries * 25, 100), skew=1.1, seed=profile.seed
    )
    return bundle, arrivals


@pytest.mark.parametrize("shards", SHARD_CASES)
def test_sharded_throughput(benchmark, profile, shards):
    bundle, arrivals = _workload(profile)
    engine = build_sharded_engine(
        bundle.dataset,
        shards,
        profile=profile,
        landmarks=bundle.engine.landmarks,
        normalization=bundle.engine.normalization,
    )
    try:
        point = benchmark.pedantic(
            run_sharded_point,
            args=(engine, arrivals),
            kwargs=dict(k=profile.default_k, alpha=profile.default_alpha),
            rounds=1,
            iterations=1,
        )
    finally:
        engine.close()
    benchmark.extra_info["shards"] = shards
    benchmark.extra_info["qps"] = round(point.qps, 2)
    benchmark.extra_info["pruned_fraction"] = round(point.pruned_fraction, 4)
    benchmark.extra_info["searched_per_query"] = round(point.shards_searched_per_query, 3)


def test_pruning_bound_skips_shards(profile):
    """Acceptance: at 4 shards the MINF bound must prune a nonzero
    fraction of non-home shards on the Zipf workload."""
    bundle, arrivals = _workload(profile)
    engine = build_sharded_engine(
        bundle.dataset,
        4,
        profile=profile,
        landmarks=bundle.engine.landmarks,
        normalization=bundle.engine.normalization,
    )
    try:
        point = run_sharded_point(
            engine, arrivals, k=profile.default_k, alpha=profile.default_alpha
        )
    finally:
        engine.close()
    assert point.pruned_fraction > 0.0, (
        "shard-level MINF bound pruned nothing on a spatially clustered "
        "Zipf workload — the bound machinery is broken"
    )


@pytest.mark.skipif(not _HAS_FORK, reason="process backend requires fork")
def test_warm_pool_absorbs_update_stream(profile):
    """Acceptance: under a mixed read/update workload the warm process
    pool must ship the updates to its live workers as deltas — at most
    one cold re-fork round (the expectation is zero).  This is a
    correctness property of delta shipping, not a timing, so it asserts
    on any core count."""
    bundle, arrivals = _workload(profile)
    engine = build_sharded_engine(
        bundle.dataset,
        4,
        profile=profile,
        landmarks=bundle.engine.landmarks,
        normalization=bundle.engine.normalization,
        copy_locations=True,
    )
    try:
        point = run_sharded_mixed(
            engine,
            arrivals,
            backend="process",
            k=profile.default_k,
            alpha=profile.default_alpha,
            seed=profile.seed,
        )
    finally:
        engine.close()
    assert point.updates > 0
    assert point.deltas_shipped > 0, (
        "the update stream never reached the warm workers as deltas"
    )
    assert point.cold_reforks <= 1, (
        f"warm pool cold re-forked {point.cold_reforks} rounds under the "
        f"update stream — delta shipping is not keeping the workers warm"
    )


def main() -> int:
    from repro.bench.artifacts import tables_payload, write_bench_json

    tables = list(sharded_scaling())
    scaling = next(t for t in tables if t.experiment == "Sharded")
    mixed = next(t for t in tables if t.experiment == "Sharded mixed")
    for table in tables:
        print(table.to_text())

    shards_col = scaling.column("Shards")
    backend_col = scaling.column("Backend")
    speedups = scaling.column("Speedup")
    pruned = scaling.column("Pruned fraction")
    by_key = {
        (s, b): (sp, pf)
        for s, b, sp, pf in zip(shards_col, backend_col, speedups, pruned)
    }
    four_speedup = max(by_key[(4, b)][0] for b in ("inline", "process"))
    four_pruned = max(by_key[(4, b)][1] for b in ("inline", "process"))
    cores = os.cpu_count() or 1
    print(
        f"\n4-shard speedup over 1 shard: {four_speedup:.2f}x "
        f"(pruned fraction {four_pruned:.1%}, {cores} core(s))"
    )
    assert four_pruned > 0.0, "expected a nonzero shard-pruning rate"

    mixed_rows = dict(
        zip(
            mixed.column("Backend"),
            zip(
                mixed.column("Updates"),
                mixed.column("Cold re-forks"),
                mixed.column("Re-forks"),
                mixed.column("Deltas shipped"),
            ),
        )
    )
    summary = {
        "four_shard_speedup": four_speedup,
        "four_shard_pruned_fraction": four_pruned,
        "cores": cores,
        "mixed": {
            backend: {
                "updates": updates,
                "cold_reforks": cold,
                "reforks": reforks,
                "deltas_shipped": deltas,
            }
            for backend, (updates, cold, reforks, deltas) in mixed_rows.items()
        },
    }
    if "process" in mixed_rows:
        updates, cold, _, deltas = mixed_rows["process"]
        print(
            f"warm pool under updates: {updates} updates, "
            f"{deltas} deltas shipped, {cold} cold re-fork round(s)"
        )
        # Schedule-independent correctness: delta shipping must keep the
        # forked workers warm across the update stream regardless of how
        # many cores the box has.
        assert cold <= 1, (
            f"warm pool cold re-forked {cold} rounds under the update "
            f"stream — delta shipping is not keeping the workers warm"
        )

    # The 4-shard configuration does ~1.3x the single-index work (the
    # home shard re-derives roughly the global top-k), so with P cores
    # the warm process backend's ceiling is ~P/1.3: the >=3x gate needs
    # >= 4 cores to have real margin; fewer cores cannot express shard
    # parallelism.  REPRO_SHARDED_GATE overrides the core-count
    # heuristic: "strict" always asserts, "report" never does (what CI
    # uses — shared noisy-neighbor runners make a wall-clock gate flake
    # on changes unrelated to sharding).
    gate = os.environ.get("REPRO_SHARDED_GATE", "auto")
    if gate == "strict" or (gate == "auto" and cores >= 4):
        assert four_speedup >= 3.0, (
            f"expected >=3x at 4 shards over 1 shard with {cores} cores, "
            f"got {four_speedup:.2f}x"
        )
    else:
        print(
            f"(gate={gate}, {cores} core(s): the 3x gate is reported, "
            f"not asserted — best 4-shard speedup here {four_speedup:.2f}x)"
        )
    payload = tables_payload(tables)
    payload.update(summary)
    print(f"wrote {write_bench_json('sharded', payload)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
