"""``repro`` — the operator CLI.

One command per operational verb: ``load`` materialises a synthetic
dataset into a saved engine file, ``serve`` puts the HTTP API in front
of it, ``query``/``stats``/``tail`` are the read tools (each with
``--format {table,csv,json}``), and ``snapshot``/``restore`` drive the
durable store — against a running server or a local engine file.

The module imports :mod:`click` at import time; the package's
``main()`` entry point (:mod:`repro.cli`) gates that import behind a
helpful error, since click is an optional dependency
(``pip install repro-ssrq[cli]``).
"""

from __future__ import annotations

import sys

import click

import repro
from repro import (
    GeoSocialEngine,
    QueryRequest,
    QueryService,
    correlated_dataset,
    foursquare_like,
    gowalla_like,
    load_engine,
    save_engine,
    twitter_like,
)
from repro.cli.format import FORMATS, flatten_stats, format_output
from repro.server import ServerApiError, ServerClient, ServerConfig, ServerThread

DATASETS = {
    "gowalla": gowalla_like,
    "foursquare": foursquare_like,
    "twitter": twitter_like,
    "correlated": correlated_dataset,
}

QUERY_COLUMNS = ["rank", "user", "score", "social", "spatial"]

format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(FORMATS),
    default="table",
    show_default=True,
    help="Output format.",
)


def _parse_address(address: str) -> "tuple[str, int]":
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise click.BadParameter(
            f"expected HOST:PORT, got {address!r}", param_hint="--server"
        )
    return host or "127.0.0.1", int(port)


def _client(address: str) -> ServerClient:
    host, port = _parse_address(address)
    return ServerClient(host, port)


def _fail(err: Exception) -> "click.ClickException":
    return click.ClickException(str(err))


def _parse_k(raw) -> int:
    """``k`` with the engine's error-wording contract.

    The option is taken as a raw string so a malformed value fails with
    the same ``invalid_argument`` wording the engine and the HTTP layer
    use — not click's own type error (which would exit 2 with different
    text and break CLI/server error parity)."""
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise click.ClickException(f"k must be an integer, got {raw!r}") from None


def _parse_alpha(raw) -> float:
    """``alpha`` with the engine's wording (``float("nan")`` parses —
    the engine's range check rejects it with its own pinned message)."""
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise click.ClickException(f"alpha must be a number, got {raw!r}") from None


def _result_rows(result: dict) -> "list[dict]":
    return [
        dict(rank=i, **neighbor)
        for i, neighbor in enumerate(result["neighbors"])
    ]


@click.group()
@click.version_option(version=repro.__version__, prog_name="repro")
def cli() -> None:
    """Operate an SSRQ engine: build, serve, query, observe."""


@cli.command()
@click.argument("out", type=click.Path(writable=True))
@click.option(
    "--dataset",
    type=click.Choice(sorted(DATASETS)),
    default="gowalla",
    show_default=True,
    help="Synthetic dataset family to generate.",
)
@click.option("--n", type=int, default=2000, show_default=True, help="User count.")
@click.option("--seed", type=int, default=7, show_default=True, help="RNG seed.")
def load(out: str, dataset: str, n: int, seed: int) -> None:
    """Build a synthetic dataset and save the engine to OUT."""
    engine = GeoSocialEngine.from_dataset(DATASETS[dataset](n=n, seed=seed))
    path = save_engine(engine, out)
    click.echo(
        f"saved {dataset} engine: {engine.graph.n} users "
        f"({engine.locations.n_located} located, backend={engine.kernels.name}) -> {path}"
    )


@cli.command()
@click.argument("user", type=int)
@click.option("--engine", "engine_path", type=click.Path(exists=True),
              help="Saved engine (directory) to query locally.")
@click.option("--server", "server_address", metavar="HOST:PORT",
              help="Running server to query instead.")
@click.option("-k", type=str, default=str(QueryRequest.k), show_default=True, help="Result size.")
@click.option("--alpha", type=str, default=str(QueryRequest.alpha), show_default=True,
              help="Social/spatial preference in [0, 1].")
@click.option("--method", default=QueryRequest.method, show_default=True, help="Search method.")
@format_option
def query(user, engine_path, server_address, k, alpha, method, fmt) -> None:
    """Run one SSRQ for USER and print the ranked neighbours."""
    if (engine_path is None) == (server_address is None):
        raise click.UsageError("pass exactly one of --engine or --server")
    k = _parse_k(k)
    alpha = _parse_alpha(alpha)
    try:
        request = QueryRequest.coerce(user, k, alpha, method)
        if server_address is not None:
            with _client(server_address) as client:
                result = client.query(request)["result"]
        else:
            from repro.service.model import result_payload

            result = result_payload(load_engine(engine_path).query(request))
    except ServerApiError as err:
        # the wire body carries the engine's message verbatim; show that
        # (not the "[status code]" repr) so CLI output matches a local run
        raise click.ClickException(err.message) from err
    except (ValueError, ConnectionError) as err:
        raise _fail(err) from err
    click.echo(format_output(_result_rows(result), QUERY_COLUMNS, fmt))


@cli.command()
@click.option("--engine", "engine_path", type=click.Path(exists=True),
              help="Saved engine (directory) to serve.")
@click.option("--dataset", type=click.Choice(sorted(DATASETS)),
              help="Serve a freshly generated dataset instead of a file.")
@click.option("--n", type=int, default=2000, show_default=True,
              help="User count (with --dataset).")
@click.option("--seed", type=int, default=7, show_default=True,
              help="RNG seed (with --dataset).")
@click.option("--host", default=ServerConfig.host, show_default=True)
@click.option("--port", type=int, default=8787, show_default=True)
@click.option("--workers", type=int, default=ServerConfig.workers, show_default=True)
@click.option("--queue-depth", type=int, default=ServerConfig.queue_depth, show_default=True,
              help="Admission-queue depth (overflow sheds with 429).")
@click.option("--deadline-ms", type=float, default=ServerConfig.default_deadline_ms,
              show_default=True, help="Default per-request deadline.")
@click.option("--no-cache", is_flag=True, help="Disable the service result cache.")
@click.option("--social-cache-bytes", type=int, default=None,
              help="Byte budget of the served engine's social column cache, "
                   "kept across rebuilds and restores (0 disables; default: "
                   "the engine default).")
@click.option("--drain-snapshot-root", type=click.Path(file_okay=False), default=None,
              help="Take a final snapshot here on graceful shutdown.")
def serve(engine_path, dataset, n, seed, host, port, workers, queue_depth,
          deadline_ms, no_cache, social_cache_bytes, drain_snapshot_root) -> None:
    """Serve the HTTP API over an engine until interrupted."""
    if (engine_path is None) == (dataset is None):
        raise click.UsageError("pass exactly one of --engine or --dataset")
    if engine_path is not None:
        engine = load_engine(engine_path)
    else:
        engine = GeoSocialEngine.from_dataset(DATASETS[dataset](n=n, seed=seed))
    try:
        if social_cache_bytes is not None:
            # the column budget is the engine's: the same data and
            # normalisers, rebuilt with it
            engine = engine.with_graph(
                engine.graph, normalization=engine.normalization,
                social_cache_bytes=social_cache_bytes,
            )
        service = QueryService(engine, cache_size=0) if no_cache else QueryService(engine)
    except ValueError as err:
        raise _fail(err) from err
    with service:
        try:
            handle = ServerThread(
                service,
                host=host,
                port=port,
                workers=workers,
                queue_depth=queue_depth,
                default_deadline_ms=deadline_ms,
                drain_snapshot_root=drain_snapshot_root,
            )
            handle.start()
        except (ValueError, OSError) as err:
            raise _fail(err) from err
        click.echo(
            f"serving {engine.graph.n} users on http://{handle.host}:{handle.port} "
            f"(workers={workers}, queue_depth={queue_depth}); Ctrl-C to drain and stop"
        )
        try:
            while True:
                import time

                time.sleep(3600)
        except KeyboardInterrupt:
            click.echo("draining...", err=True)
        finally:
            handle.stop()
            click.echo("stopped", err=True)


@cli.command()
@click.argument("user", type=int)
@click.option("--server", "server_address", metavar="HOST:PORT", required=True)
@click.option("-k", type=str, default=str(QueryRequest.k), show_default=True, help="Result size.")
@click.option("--alpha", type=str, default=str(QueryRequest.alpha), show_default=True,
              help="Social/spatial preference in [0, 1].")
@click.option("--method", default=QueryRequest.method, show_default=True)
@click.option("--count", type=int, default=None,
              help="Exit after this many events (default: stream forever).")
@format_option
def tail(user, server_address, k, alpha, method, count, fmt) -> None:
    """Follow a standing query's delta stream for USER."""
    try:
        request = QueryRequest.coerce(user, _parse_k(k), _parse_alpha(alpha), method)
    except ValueError as err:
        raise _fail(err) from err
    import json as _json

    columns = ["event", "entered", "left", "moved", "size"]
    # streaming output can't right-size columns after the fact, so the
    # table format pads each cell to a fixed width first
    widths = {"event": 9, "entered": 24, "left": 16, "moved": 24, "size": 4}

    def emit(row: dict) -> None:
        if fmt == "table":
            row = {col: str(row[col]).ljust(widths[col]) for col in columns}
        click.echo(format_output([row], columns, fmt).splitlines()[-1])

    if fmt != "json":
        emit({col: col for col in columns})
    seen = 0
    client = _client(server_address)
    try:
        for event, payload in client.tail(request):
            if fmt == "json":
                click.echo(_json.dumps({"event": event, "payload": payload}))
            else:
                if event == "delta":
                    row = {
                        "event": event,
                        "entered": ",".join(str(nb["user"]) for nb in payload["entered"]),
                        "left": ",".join(str(u) for u in payload["left"]),
                        "moved": ",".join(str(nb["user"]) for nb in payload["moved"]),
                        "size": payload["size"],
                    }
                else:
                    result = (payload or {}).get("result") or {}
                    row = {
                        "event": event,
                        "entered": ",".join(str(u) for u in result.get("users", [])),
                        "left": "",
                        "moved": "",
                        "size": len(result.get("users", [])),
                    }
                emit(row)
            seen += 1
            if event == "end" or (count is not None and seen >= count):
                break
    except ServerApiError as err:
        raise click.ClickException(err.message) from err
    except ConnectionError as err:
        raise _fail(err) from err
    except KeyboardInterrupt:
        pass


@cli.command()
@click.option("--server", "server_address", metavar="HOST:PORT", required=True)
@format_option
def stats(server_address, fmt) -> None:
    """Print every layer's counters from a running server."""
    try:
        with _client(server_address) as client:
            payload = client.stats()
    except (ServerApiError, ConnectionError) as err:
        raise _fail(err) from err
    if fmt == "json":
        import json as _json

        click.echo(_json.dumps(payload, indent=2, sort_keys=True))
        return
    click.echo(format_output(flatten_stats(payload), ["section", "key", "value"], fmt))


@cli.command()
@click.argument("root", type=click.Path(file_okay=False))
@click.option("--server", "server_address", metavar="HOST:PORT",
              help="Snapshot a running server's live engine.")
@click.option("--engine", "engine_path", type=click.Path(exists=True),
              help="Snapshot a saved engine (directory) instead.")
@click.option("--no-fold", is_flag=True,
              help="Keep the delta journal instead of folding pending updates.")
def snapshot(root, server_address, engine_path, no_fold) -> None:
    """Write a crash-consistent snapshot under ROOT."""
    if (engine_path is None) == (server_address is None):
        raise click.UsageError("pass exactly one of --engine or --server")
    try:
        if server_address is not None:
            with _client(server_address) as client:
                payload = client.snapshot(root, fold=not no_fold)
            click.echo(f"snapshot {payload['name']} -> {payload['path']}")
        else:
            engine = load_engine(engine_path)
            with QueryService(engine, cache_size=0) as service:
                path = service.snapshots(root).snapshot(fold=not no_fold)
            click.echo(f"snapshot {path.name} -> {path}")
    except (ServerApiError, ValueError, ConnectionError) as err:
        raise _fail(err) from err


@cli.command()
@click.argument("root", type=click.Path(exists=True, file_okay=False))
@click.option("--server", "server_address", metavar="HOST:PORT", required=True,
              help="Server whose live engine is replaced by the snapshot.")
def restore(root, server_address) -> None:
    """Swap ROOT's last committed snapshot into a running server."""
    try:
        with _client(server_address) as client:
            payload = client.restore(root)
    except (ServerApiError, ConnectionError) as err:
        raise _fail(err) from err
    click.echo(
        f"restored {payload['kind']} with {payload['users']} users from {payload['root']}"
    )


if __name__ == "__main__":  # pragma: no cover
    cli()
