"""Tests for the benchmark harness itself (smoke profile: seconds)."""

import ast
import functools
import json
from pathlib import Path

import pytest

import repro.bench
from repro.bench.config import PROFILES
from repro.bench.figures import ALL_EXPERIMENTS
from repro.bench.__main__ import _print, main
from repro.bench.reporting import ExperimentTable, dumps, record
from repro.bench.runner import jaccard, run_method
from repro.bench.workloads import get_bundle, sample_query_users
from repro.cli.format import format_output

SMOKE = PROFILES["smoke"]
#: the committed record of a ``smoke`` run (``python -m repro.bench
#: --profile smoke --output BENCH_paper_smoke.json`` re-records it)
RECORD = Path(__file__).resolve().parent.parent / "BENCH_paper_smoke.json"


class TestConfig:
    def test_profiles_exist(self):
        assert set(PROFILES) == {"smoke", "quick", "full"}

    def test_explicit_name_wins(self):
        assert PROFILES["full"].name == "full"

    def test_unknown_profile(self, capsys):
        with pytest.raises(SystemExit):
            main(["--profile", "gigantic"])
        assert "invalid choice: 'gigantic'" in capsys.readouterr().err

    def test_table3_parameters_mirrored(self):
        full = PROFILES["full"]
        assert full.k_values == (10, 20, 30, 40, 50)
        assert full.alpha_values == (0.1, 0.3, 0.5, 0.7, 0.9)
        assert full.s_values == (5, 10, 15, 20, 25)
        assert full.default_k == 30
        assert full.default_alpha == 0.3
        assert full.default_s == 10
        assert full.num_landmarks == 8


class TestWorkloads:
    def test_bundle_caching(self):
        a = get_bundle("gowalla", SMOKE)
        b = get_bundle("gowalla", SMOKE)
        assert a.engine is b.engine

    def test_distinct_s_distinct_engines(self):
        a = get_bundle("gowalla", SMOKE, s=5)
        b = get_bundle("gowalla", SMOKE, s=10)
        assert a.engine is not b.engine
        assert a.dataset is b.dataset  # dataset shared

    def test_query_users_are_located(self):
        bundle = get_bundle("gowalla", SMOKE)
        assert bundle.query_users
        for user in bundle.query_users:
            assert bundle.dataset.locations.has_location(user)

    def test_sample_query_users_deterministic(self):
        bundle = get_bundle("gowalla", SMOKE)
        a = sample_query_users(bundle.dataset, 5, seed=3)
        b = sample_query_users(bundle.dataset, 5, seed=3)
        assert a == b

    def test_correlated_bundle_queries_from_anchor(self):
        bundle = get_bundle("correlated-positive", SMOKE)
        assert len(set(bundle.query_users)) == 1

    def test_scale_bundles_sizes(self):
        sizes = [get_bundle(f"scale-{i}", SMOKE).engine.graph.n for i in range(3)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            get_bundle("mars", SMOKE)


class TestRunner:
    def test_run_method_aggregates(self):
        bundle = get_bundle("gowalla", SMOKE)
        agg = run_method(bundle.engine, bundle.query_users, "ais", k=5, alpha=0.3)
        assert agg.queries == len(bundle.query_users)
        assert agg.avg_time > 0
        assert agg.avg_pops > 0
        assert agg.results == []

    def test_keep_results(self):
        bundle = get_bundle("gowalla", SMOKE)
        agg = run_method(
            bundle.engine, bundle.query_users, "sfa", k=5, alpha=0.3, keep_results=True
        )
        assert len(agg.results) == agg.queries

    def test_empty_workload_rejected(self):
        bundle = get_bundle("gowalla", SMOKE)
        with pytest.raises(ValueError):
            run_method(bundle.engine, [], "ais")

    def test_jaccard(self):
        assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 1.0
        assert jaccard({1}, set()) == 0.0


class TestReporting:
    def test_row_width_checked(self):
        table = ExperimentTable("X", "t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_text_rendering(self, capsys):
        """A table prints through the CLI's one formatter."""
        table = ExperimentTable("Fig", "demo", ["k", "AIS"], notes="note")
        table.add_row([10, 0.5])
        _print(table)
        assert capsys.readouterr().out.splitlines()[1:] == [
            "== Fig: demo ==",
            *format_output([{"k": 10, "AIS": 0.5}], ["k", "AIS"], "table").splitlines(),
            "(note)",
        ]

    def test_one_verdict_line_per_claim(self, capsys):
        table = ExperimentTable("Fig", "demo", ["k", "AIS"])
        table.add_row([10, 1.0])
        table.claim("AIS is fast", True)
        table.claim("AIS is free", False)
        assert table.claims == [("AIS is fast", True), ("AIS is free", False)]
        _print(table)
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "claim: AIS is fast: holds",
            "claim: AIS is free: does not hold",
        ]

    def test_the_record_keeps_untimed_tables_and_their_claims(self):
        times = ExperimentTable("Fig", "time", ["k", "AIS"], timed=True)
        pops = ExperimentTable("Fig (pop)", "pops", ["k", "AIS"])
        for table in (times, pops):
            table.add_row([10, 0.1 + 0.2])
            table.claim("AIS is fast", True)
        text = dumps(record("smoke", {"fig": [times, pops]}))
        assert json.loads(text) == {"profile": "smoke", "experiments": {"fig": {
            "Fig (pop): pops": {
                "headers": ["k", "AIS"], "rows": [[10, 0.30000000000000004]],
                "claims": [{"statement": "AIS is fast", "holds": True}],
            },
        }}}

    def test_column_access(self):
        table = ExperimentTable("Fig", "demo", ["k", "AIS"])
        table.add_row([10, 1.0])
        table.add_row([20, 2.0])
        assert table.column("AIS") == [1.0, 2.0]
        with pytest.raises(ValueError):
            table.column("missing")


@functools.cache
def _tables(name):
    """Each driver's smoke tables, measured once per test session."""
    return ALL_EXPERIMENTS[name](SMOKE)


class TestFigureDrivers:
    """End-to-end smoke of every driver (tiny profile), the paper's
    claims included."""

    @pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
    def test_driver_produces_tables(self, name):
        tables = _tables(name)
        assert tables
        for table in tables:
            assert table.rows
            assert all(len(row) == len(table.headers) for row in table.rows)
        claims = [claim for table in tables for claim in table.claims]
        if name != "fig12":  # the paper states no trend in s that is checked
            assert claims
        assert [statement for statement, holds in claims if not holds] == []

    def test_registry_is_the_paper_set(self):
        """Per-feature serving experiments live in perfbench/, not here."""
        assert set(ALL_EXPERIMENTS) == {
            "table2", "fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14a", "fig14b", "ablations",
        }

    def test_fig8_structure(self):
        tables = _tables("fig8")
        assert len(tables) == 8  # time + pop, per dataset and per CH instance
        assert tables[0].column("k") == list(SMOKE.k_values)
        assert "SFA-CH" in tables[-1].headers

    def test_fig12_structure(self):
        assert _tables("fig12")[0].column("s") == list(SMOKE.s_values)

    def test_every_wall_time_table_is_marked_timed(self):
        """Wall times differ from run to run, so a table holding one
        stays out of the record, and every other table goes in."""
        for name in ALL_EXPERIMENTS:
            for table in _tables(name):
                holds_time = "running time" in table.title or "time (s)" in table.headers
                assert table.timed == holds_time, table.name

    def test_the_record_matches_the_committed_file(self):
        """Every counter of every driver, and every claim over them,
        equals ``BENCH_paper_smoke.json`` exactly.  A change that moves
        a counter re-records the file and says which counter moved."""
        measured = dumps(record("smoke", {name: _tables(name) for name in ALL_EXPERIMENTS}))
        committed = RECORD.read_text(encoding="utf-8")
        moved = _mismatches(json.loads(committed), json.loads(measured))
        assert not moved, "\n".join(moved)
        assert measured == committed


def _row_key(table: dict, row: list) -> str:
    """``x = value`` for a row (the leading two cells where the first
    alone repeats, as in the ablations)."""
    headers, firsts = table["headers"], [r[0] for r in table["rows"]]
    width = 1 if len(set(map(repr, firsts))) == len(firsts) else 2
    return ", ".join(f"{h} = {v!r}" for h, v in zip(headers[:width], row[:width]))


def _mismatches(committed: dict, measured: dict) -> list[str]:
    """One line per value that differs between two records, naming the
    experiment, the table, the row's x and the column."""
    lines = []
    if committed["profile"] != measured["profile"]:
        lines.append(f"profile: committed {committed['profile']!r}, measured {measured['profile']!r}")
    old_runs, new_runs = committed["experiments"], measured["experiments"]
    for experiment in [*old_runs, *(name for name in new_runs if name not in old_runs)]:
        old, new = old_runs.get(experiment, {}), new_runs.get(experiment, {})
        for name in [*old, *(name for name in new if name not in old)]:
            where = f"{experiment} / {name}"
            if name not in old or name not in new:
                lines.append(f"{where}: only {'measured' if name in new else 'committed'}")
                continue
            a, b = old[name], new[name]
            if a["headers"] != b["headers"] or len(a["rows"]) != len(b["rows"]):
                lines.append(f"{where}: shape committed {a['headers']} x {len(a['rows'])}, "
                             f"measured {b['headers']} x {len(b['rows'])}")
                continue
            for row_a, row_b in zip(a["rows"], b["rows"]):
                lines += [
                    f"{where}, {_row_key(a, row_a)}, {header}: committed {x!r}, measured {y!r}"
                    for header, x, y in zip(a["headers"], row_a, row_b)
                    if x != y
                ]
            lines += [
                f"{where}: claim committed {x}, measured {y}"
                for x, y in zip(a["claims"], b["claims"])
                if x != y
            ]
            if len(a["claims"]) != len(b["claims"]):
                lines.append(f"{where}: {len(a['claims'])} claims committed, {len(b['claims'])} measured")
    return lines


def test_a_moved_counter_is_named_by_figure_point_and_column():
    committed = json.loads(RECORD.read_text(encoding="utf-8"))
    measured = json.loads(json.dumps(committed))
    table = measured["experiments"]["fig8"]["Figure 8 (pop): pop ratio vs k in Gowalla-like"]
    table["rows"][1][table["headers"].index("TSA")] += 1
    assert _mismatches(committed, measured) == [
        "fig8 / Figure 8 (pop): pop ratio vs k in Gowalla-like, k = 30, TSA: "
        f"committed {table['rows'][1][3] - 1!r}, measured {table['rows'][1][3]!r}"
    ]


def _query_calls_without_a_method(source: str) -> list[int]:
    """Lines of ``.query(`` calls passing neither a fourth positional
    argument nor ``method=``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "query"
        and len(node.args) < 4
        and not any(keyword.arg == "method" for keyword in node.keywords)
    ]


def test_the_method_guard_sees_an_unnamed_call():
    probe = (
        "engine.query(user, k=5, alpha=0.3)\n"
        "engine.query(user, 5, 0.3, 'ais')\n"
        "engine.query(user, 5, 0.3, method='ais')\n"
        "engine.query(request)\n"
    )
    assert _query_calls_without_a_method(probe) == [1, 4]


@pytest.mark.parametrize(
    "module", sorted(Path(repro.bench.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_bench_query_relies_on_the_default_method(module):
    """``engine.query``'s default method changed meaning once (it became
    ``auto``) and the landmark ablations silently measured ``bounded``:
    every query the reproduction tier issues names its method."""
    assert _query_calls_without_a_method(module.read_text(encoding="utf-8")) == []
