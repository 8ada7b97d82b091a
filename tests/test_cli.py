"""The ``repro`` operator CLI: golden behaviour in all three formats.

Outputs are asserted *relationally* rather than against frozen float
literals: the same rows must render through every format, and the
rendered values must equal what the engine itself returns — so the
suite pins the exact output contract (headers, column order, row
order, value formatting) without freezing any float.
"""

from __future__ import annotations

import csv
import io
import json
import threading
import time

import pytest

click = pytest.importorskip("click", reason="the CLI is an optional extra")

from click.testing import CliRunner  # noqa: E402

from repro import GeoSocialEngine, QueryService, load_engine  # noqa: E402
from repro.cli.format import flatten_stats, format_output  # noqa: E402
from repro.cli import commands  # noqa: E402
from repro.cli.commands import DATASETS, cli  # noqa: E402
from repro.server import ServerClient, ServerThread  # noqa: E402
from repro.service.model import result_payload  # noqa: E402


@pytest.fixture(scope="module")
def runner() -> CliRunner:
    return CliRunner()


@pytest.fixture(scope="module")
def engine_dir(runner, tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("cli") / "engine.store")
    result = runner.invoke(
        cli, ["load", path, "--dataset", "gowalla", "--n", "250", "--seed", "7"]
    )
    assert result.exit_code == 0, result.output
    return path


@pytest.fixture(scope="module")
def engine(engine_dir) -> GeoSocialEngine:
    return load_engine(engine_dir)


@pytest.fixture(scope="module")
def query_user(engine) -> int:
    return sorted(engine.locations.located_users())[0]


@pytest.fixture(scope="module")
def served(engine):
    with QueryService(engine) as service:
        with ServerThread(service, workers=2, heartbeat_s=0.2) as handle:
            yield handle


@pytest.fixture(scope="module")
def address(served) -> str:
    return f"{served.host}:{served.port}"


# -- formatting primitives ---------------------------------------------


def test_format_output_formats_agree():
    rows = [
        {"user": 3, "score": 0.5, "note": None},
        {"user": 11, "score": 0.125, "note": "x"},
    ]
    columns = ["user", "score", "note"]
    table = format_output(rows, columns, "table")
    lines = table.splitlines()
    assert lines[0].split() == columns
    assert set(lines[1]) <= {"-", " "}
    assert lines[2].split() == ["3", "0.5"]  # None renders empty
    as_csv = list(csv.reader(io.StringIO(format_output(rows, columns, "csv"))))
    assert as_csv[0] == columns
    assert as_csv[1] == ["3", "0.5", ""]
    as_json = json.loads(format_output(rows, columns, "json"))
    assert as_json == [
        {"user": 3, "score": 0.5, "note": None},
        {"user": 11, "score": 0.125, "note": "x"},
    ]


def test_format_output_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        format_output([], ["a"], "xml")


def test_flatten_stats_dotted_keys():
    rows = flatten_stats({"service": {"requests": 2, "per_method": {"spa": 1}}})
    assert {"section": "service", "key": "requests", "value": 2} in rows
    assert {"section": "service", "key": "per_method.spa", "value": 1} in rows


# -- load / query (local engine) ---------------------------------------


def test_load_reports_engine_shape(runner, engine_dir, engine):
    # the fixture already ran `load`; verify what it persisted
    assert engine.graph.n == 250


def test_query_local_golden(runner, engine_dir, engine, query_user):
    """The table/csv/json outputs all carry exactly the engine's own
    answer, in rank order, formatted by the shared formatter."""
    expected = result_payload(engine.query(query_user, k=5, alpha=0.3, method="ais"))
    expected_rows = [
        dict(rank=i, **nb) for i, nb in enumerate(expected["neighbors"])
    ]
    columns = ["rank", "user", "score", "social", "spatial"]
    for fmt in ("table", "csv", "json"):
        result = runner.invoke(
            cli,
            ["query", str(query_user), "--engine", engine_dir, "-k", "5",
             "--alpha", "0.3", "--format", fmt],
        )
        assert result.exit_code == 0, result.output
        assert result.output.rstrip("\n") == format_output(expected_rows, columns, fmt)
    # csv is machine-parseable back to the same users
    result = runner.invoke(
        cli,
        ["query", str(query_user), "--engine", engine_dir, "-k", "5",
         "--alpha", "0.3", "--format", "csv"],
    )
    parsed = list(csv.DictReader(io.StringIO(result.output)))
    assert [int(row["user"]) for row in parsed] == expected["users"]


def test_query_requires_exactly_one_target(runner, engine_dir, query_user):
    result = runner.invoke(cli, ["query", str(query_user)])
    assert result.exit_code != 0
    assert "exactly one of --engine or --server" in result.output
    result = runner.invoke(
        cli,
        ["query", str(query_user), "--engine", engine_dir, "--server", "x:1"],
    )
    assert result.exit_code != 0


def test_query_error_is_clean_not_traceback(runner, engine_dir):
    result = runner.invoke(cli, ["query", "999999", "--engine", engine_dir])
    assert result.exit_code == 1
    assert "out of range" in result.output
    assert "Traceback" not in result.output


# -- server-backed commands --------------------------------------------


def test_query_against_server_matches_local(runner, engine_dir, address, engine, query_user):
    over_http = runner.invoke(
        cli, ["query", str(query_user), "--server", address, "-k", "5", "--format", "csv"]
    )
    local = runner.invoke(
        cli, ["query", str(query_user), "--engine", engine_dir, "-k", "5", "--format", "csv"]
    )
    assert over_http.exit_code == 0, over_http.output
    assert over_http.output == local.output


def test_stats_command_all_formats(runner, address):
    as_json = runner.invoke(cli, ["stats", "--server", address, "--format", "json"])
    assert as_json.exit_code == 0, as_json.output
    payload = json.loads(as_json.output)
    assert "server" in payload and "service" in payload
    table = runner.invoke(cli, ["stats", "--server", address])
    assert table.exit_code == 0
    assert table.output.splitlines()[0].split() == ["section", "key", "value"]
    as_csv = runner.invoke(cli, ["stats", "--server", address, "--format", "csv"])
    rows = list(csv.DictReader(io.StringIO(as_csv.output)))
    sections = {row["section"] for row in rows}
    assert {"service", "cache", "server", "engine"} <= sections


def test_snapshot_restore_commands(runner, address, tmp_path):
    root = str(tmp_path / "snaps")
    result = runner.invoke(cli, ["snapshot", root, "--server", address])
    assert result.exit_code == 0, result.output
    assert "snapshot-" in result.output
    result = runner.invoke(cli, ["restore", root, "--server", address])
    assert result.exit_code == 0, result.output
    assert "restored GeoSocialEngine with 250 users" in result.output


def test_snapshot_local_engine(runner, engine_dir, tmp_path):
    root = str(tmp_path / "local-snaps")
    result = runner.invoke(cli, ["snapshot", root, "--engine", engine_dir])
    assert result.exit_code == 0, result.output
    assert "snapshot-" in result.output


def test_tail_streams_events(runner, served, address, query_user):
    """`repro tail --count 2` prints the snapshot then one delta as
    JSON lines, and exits on its own."""
    out: dict = {}

    def run_tail() -> None:
        out["result"] = runner.invoke(
            cli,
            ["tail", str(query_user), "--server", address, "-k", "5",
             "--count", "2", "--format", "json"],
        )

    thread = threading.Thread(target=run_tail)
    thread.start()
    time.sleep(0.4)
    with ServerClient(served.host, served.port) as client:
        client.move(query_user, 0.271, 0.828)
    thread.join(timeout=30)
    result = out["result"]
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in result.output.splitlines()]
    assert len(lines) == 2
    assert lines[0]["event"] == "snapshot"
    assert lines[0]["payload"]["user"] == query_user
    assert lines[1]["event"] == "delta"


def test_tail_table_has_header(runner, served, address, query_user):
    out: dict = {}

    def run_tail() -> None:
        out["result"] = runner.invoke(
            cli,
            ["tail", str(query_user), "--server", address, "-k", "5",
             "--count", "1", "--format", "table"],
        )

    thread = threading.Thread(target=run_tail)
    thread.start()
    thread.join(timeout=30)
    result = out["result"]
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0].split() == ["event", "entered", "left", "moved", "size"]
    assert lines[1].startswith(("snapshot", "suspended"))


@pytest.mark.parametrize(
    "argv",
    [["-k", "0"], ["-k", "abc"], ["--alpha", "abc"], ["--alpha", "2.5"], ["--method", "warp"]],
    ids=["k_zero", "k_text", "alpha_text", "alpha_high", "unknown_method"],
)
def test_tail_refuses_bad_parameters_like_query(runner, address, query_user, argv):
    """`repro tail` used to print its header and then a traceback for
    ``-k 0``, exit 2 with click's wording for ``-k abc``, and print
    ``[400 invalid_argument] ...`` for an API error.  It now fails
    like `repro query`: exit 1 with the same one-line message, and a
    parameter it can check itself fails before the header."""
    outputs = {}
    for command in ("query", "tail"):
        result = runner.invoke(cli, [command, str(query_user), "--server", address, *argv])
        assert result.exit_code == 1, (command, result.output)
        assert "Traceback" not in result.output and "[400" not in result.output
        outputs[command] = result.output
    assert outputs["query"].startswith("Error: ") and outputs["query"].count("\n") == 1
    if argv[0] == "--method":  # only the server knows the method table
        assert outputs["tail"].endswith(outputs["query"])
    else:
        assert outputs["tail"] == outputs["query"]


def test_serve_refuses_a_non_positive_deadline(runner, monkeypatch):
    """`repro serve --deadline-ms 0` is a click error before the server
    binds, not a server that times every request out.  (Were it to
    start, the patched sleep would stop it at once with exit 0.)"""

    def interrupt(_seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(time, "sleep", interrupt)
    result = runner.invoke(
        cli, ["serve", "--dataset", "gowalla", "--n", "60", "--port", "0", "--deadline-ms", "0"]
    )
    assert result.exit_code == 1, result.output
    assert "default_deadline_ms must be positive" in result.output
    assert "Traceback" not in result.output
    assert "serving" not in result.output


def test_serve_refuses_a_negative_column_budget(runner, monkeypatch):
    """`repro serve --social-cache-bytes -5` is a click error naming the
    field before the server binds, not a traceback."""

    def interrupt(_seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(time, "sleep", interrupt)
    result = runner.invoke(
        cli,
        ["serve", "--dataset", "gowalla", "--n", "60", "--port", "0",
         "--social-cache-bytes", "-5"],
    )
    assert result.exit_code == 1, result.output
    assert "social_cache_bytes must be >= 0, got -5" in result.output
    assert "Traceback" not in result.output
    assert "serving" not in result.output
    assert not isinstance(result.exception, ValueError)


@pytest.mark.parametrize("budget", [8192, 0])
def test_serve_keeps_its_column_budget_across_rebuild_and_restore(
    runner, monkeypatch, engine_dir, tmp_path, budget
):
    """`repro serve --social-cache-bytes N` sets N on the engine it
    loads, and the engines a folding snapshot rebuilds and `/restore`
    swaps in keep it (0: no column cache, before and after)."""
    started = []

    class Recorded(ServerThread):
        def start(self):
            started.append(self)
            return super().start()

    budgets = []
    sleep = time.sleep

    def drive(seconds):
        if seconds != 3600:  # not the serve loop's idle wait
            return sleep(seconds)
        with ServerClient(started[0].host, started[0].port) as client:
            def served_budget():
                return client.stats()["cache"].get("social", {}).get("max_bytes")

            budgets.append(served_budget())
            client.update_edge(0, 1, 0.5)
            client.snapshot(str(tmp_path / "snaps"))  # folds: rebuild_engine
            budgets.append(served_budget())
            client.restore(str(tmp_path / "snaps"))
            budgets.append(served_budget())
        raise KeyboardInterrupt

    monkeypatch.setattr(commands, "ServerThread", Recorded)
    monkeypatch.setattr(time, "sleep", drive)
    result = runner.invoke(
        cli,
        ["serve", "--engine", engine_dir, "--port", "0", "--no-cache",
         "--social-cache-bytes", str(budget)],
    )
    assert result.exit_code == 0, result.output
    assert budgets == [budget or None] * 3


def test_serve_refuses_a_port_out_of_range(runner, monkeypatch):
    """`repro serve --port 70000` is a click error naming the field, not
    an ``OverflowError`` traceback from bind."""

    def interrupt(_seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(time, "sleep", interrupt)
    result = runner.invoke(
        cli, ["serve", "--dataset", "gowalla", "--n", "60", "--port", "70000"]
    )
    assert result.exit_code == 1, result.output
    assert "port must be <= 65535, got 70000" in result.output
    assert "Traceback" not in result.output
    assert "serving" not in result.output
    assert not isinstance(result.exception, OverflowError)


def test_dataset_registry_is_complete():
    assert set(DATASETS) == {"gowalla", "foursquare", "twitter", "correlated"}


def test_version_flag(runner):
    import repro

    result = runner.invoke(cli, ["--version"])
    assert result.exit_code == 0
    assert repro.__version__ in result.output


def test_missing_click_message_is_helpful():
    """The gated entry point explains the optional extra instead of
    tracebacking when click is absent."""
    import builtins
    import sys

    from repro import cli as cli_package

    real_import = builtins.__import__
    saved = {
        name: sys.modules.pop(name)
        for name in list(sys.modules)
        if name == "repro.cli.commands" or name == "click" or name.startswith("click.")
    }

    def no_click(name, *args, **kwargs):
        if name == "click" or name.startswith("click."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return real_import(name, *args, **kwargs)

    builtins.__import__ = no_click
    try:
        with pytest.raises(SystemExit) as excinfo:
            cli_package.main()
        assert excinfo.value.code == 1
    finally:
        builtins.__import__ = real_import
        sys.modules.update(saved)
