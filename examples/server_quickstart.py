#!/usr/bin/env python3
"""The network boundary: serve SSRQ over HTTP and operate it.

`repro.server` puts a socket in front of `QueryService`: an asyncio
HTTP/1.1 server with admission control (bounded queue + 429 shedding),
request coalescing into `query_many`, Server-Sent-Event streams for
standing subscriptions, and `/stats` + `/metrics` observability.  This
example boots one in-process, proves the wire answer equals the
library answer, tails a subscription through a location move, inspects
the counters, and drains gracefully.

Run:  python examples/server_quickstart.py
"""

import threading

from repro import GeoSocialEngine, QueryService, gowalla_like
from repro.server import ServerClient, ServerThread

dataset = gowalla_like(n=1_000, seed=7)
engine = GeoSocialEngine.from_dataset(dataset)
user = sorted(engine.located_users())[0]

with QueryService(engine, cache_size=1024) as service:
    with ServerThread(service, workers=2, queue_depth=32) as handle:
        print(f"serving on http://{handle.address} (in a daemon thread)")
        client = ServerClient(handle.host, handle.port)

        # --- The wire answer IS the library answer --------------------------
        served = client.query(user, k=5, alpha=0.3, method="ais")
        direct = engine.query(user, k=5, alpha=0.3, method="ais")
        same = served["result"]["users"] == direct.users
        print(f"HTTP answer identical to in-process engine.query: {same}")

        # --- Batches ride the coalescing/batching path ----------------------
        batch = client.query_batch(
            [{"user": u} for u in sorted(engine.located_users())[:8]],
            k=5,
            alpha=0.3,
        )
        print(f"batch of {len(batch['responses'])} served in one round trip")

        # --- Errors are typed, not stack traces -----------------------------
        from repro.server import ServerApiError

        # (client.query validates its arguments before sending — with
        # the server's own wording — so post the raw body to see the
        # wire error)
        try:
            client.call("POST", "/query", {"user": user, "k": 0})
        except ServerApiError as err:
            print(f"bad request -> {err.status} {err.code}: {err.message}")

        # --- Tail a subscription through an update --------------------------
        events = []

        def tail() -> None:
            for event, payload in client_b.tail(user, k=5, alpha=0.3, timeout=30):
                events.append((event, payload))
                if len(events) >= 2:  # snapshot + one delta is our story
                    break

        client_b = ServerClient(handle.host, handle.port)
        tailer = threading.Thread(target=tail)
        tailer.start()
        import time

        time.sleep(0.3)  # let the subscription register
        client.move(user, 0.123, 0.456)  # the subscribed user moves
        tailer.join(timeout=30)
        kinds = [event for event, _ in events]
        print(f"subscription stream delivered: {kinds}")
        delta = events[1][1]
        print(
            f"delta after the move: {len(delta.get('entered', []))} entered, "
            f"{len(delta.get('left', []))} left, "
            f"{len(delta.get('moved', []))} re-ranked"
        )

        # --- Observability ----------------------------------------------------
        stats = client.stats()
        server = stats["server"]
        print(
            f"server counters: requests={server['requests']} "
            f"admitted={server['admitted']} shed={server['shed']} "
            f"coalesced_batches={server['coalesced_batches']}"
        )
        prom = client.metrics()
        print(f"/metrics exposes {sum(1 for l in prom.splitlines() if l and not l.startswith('#'))} Prometheus samples")

        client.close()
        client_b.close()
    # leaving the ServerThread context drains: in-flight requests finish,
    # streams get a final `end` event, new connections are refused
    print("drained cleanly: True")
