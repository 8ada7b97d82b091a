"""Sharded scatter-gather engine in five minutes.

Builds a clustered geo-social dataset, partitions it across four
spatial shards, and shows the three promises of `repro.shard`:

1. rankings are identical to the single engine (the equivalence the
   property suite pins);
2. the shard-level MINF bound prunes provably non-contributing shards;
3. updates route across shards — a boundary-crossing move re-homes the
   user, and the serving layer's cache invalidation works unchanged.

Run:  PYTHONPATH=src python examples/sharded_quickstart.py
"""

from repro import GeoSocialEngine, gowalla_like
from repro.service import QueryRequest, QueryService
from repro.shard import ShardedGeoSocialEngine


def main() -> None:
    dataset = gowalla_like(n=1500, seed=11)
    single = GeoSocialEngine.from_dataset(dataset)
    sharded = ShardedGeoSocialEngine(
        dataset.graph,
        dataset.locations,
        n_shards=4,
        landmarks=single.landmarks,          # share the built tables
        normalization=single.normalization,  # identical scoring
    )
    print(f"engine : {single!r}")
    print(f"sharded: {sharded!r}")
    print(f"active backend: {sharded.backend} (kernels: {type(sharded.kernels).__name__})")
    print(f"shard populations: {sharded.shard_sizes()}")

    # 1. identical rankings, shard pruning at work
    query_user = next(iter(single.located_users()))
    a = single.query(query_user, k=10, alpha=0.3, method="ais")
    b = sharded.query(query_user, k=10, alpha=0.3, method="ais")
    assert a.users == b.users
    print(f"\ntop-10 around user {query_user} (alpha=0.3): {b.users}")
    print(
        f"identical to the single engine: {a.users == b.users}; "
        f"shards searched {b.stats.extra['shards_searched']}, "
        f"pruned {b.stats.extra['shards_pruned']}"
    )

    # 2. serve traffic through the same QueryService, cache included
    with QueryService(sharded, max_workers=2, cache_size=256) as service:
        users = list(sharded.locations.located_users())[:32]
        responses = service.query_many([QueryRequest(u, k=10) for u in users])
        print(f"\nserved a {len(responses)}-request batch through QueryService")

        # 3. a boundary-crossing move: old shard evicts, new shard serves
        mover = users[0]
        before = sharded.shard_of_user(mover)
        service.query(QueryRequest(mover, k=10, method="ais"))          # warm the cache
        hit = service.query(QueryRequest(mover, k=10, method="ais"))
        x, y = sharded.locations.get(mover)
        service.move_user(mover, 1.0 - x, 1.0 - y)        # across the map
        after = sharded.shard_of_user(mover)
        refreshed = service.query(QueryRequest(mover, k=10, method="ais"))
        print(
            f"user {mover} moved shard {before} -> {after}; "
            f"cached before move: {hit.cached}, after move: {refreshed.cached}"
        )
        assert hit.cached and not refreshed.cached

    print(f"\ncumulative scatter stats: {sharded.scatter_info()}")
    sharded.close()


if __name__ == "__main__":
    main()
