"""Tests for the benchmark harness itself (smoke profile: seconds)."""

import pytest

from repro.bench.config import PROFILES, get_profile
from repro.bench.reporting import ExperimentTable
from repro.bench.runner import jaccard, run_method
from repro.bench.workloads import get_bundle, sample_query_users

SMOKE = PROFILES["smoke"]


class TestConfig:
    def test_profiles_exist(self):
        assert set(PROFILES) == {"smoke", "quick", "full"}

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "smoke")
        assert get_profile().name == "smoke"

    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "smoke")
        assert get_profile("full").name == "full"

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            get_profile("gigantic")

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

    def test_text_rendering(self):
        table = ExperimentTable("Fig", "demo", ["k", "AIS"], notes="note")
        table.add_row([10, 0.5])
        text = table.to_text()
        assert "Fig" in text and "AIS" in text and "(note)" in text

    def test_markdown_rendering(self):
        table = ExperimentTable("Fig", "demo", ["k", "AIS"])
        table.add_row([10, 0.123456])
        md = table.to_markdown()
        assert md.startswith("#### Fig")
        assert "| 0.1235 |" in md

    def test_column_access(self):
        table = ExperimentTable("Fig", "demo", ["k", "AIS"])
        table.add_row([10, 1.0])
        table.add_row([20, 2.0])
        assert table.column("AIS") == [1.0, 2.0]
        with pytest.raises(ValueError):
            table.column("missing")


class TestFigureDrivers:
    """End-to-end smoke of every driver (tiny profile)."""

    @pytest.mark.parametrize(
        "name",
        ["table2", "fig7a", "fig7b", "fig9", "fig10", "fig11", "fig13", "fig14a", "fig14b"],
    )
    def test_driver_produces_tables(self, name):
        from repro.bench.figures import ALL_EXPERIMENTS

        tables = ALL_EXPERIMENTS[name](SMOKE)
        assert tables
        for table in tables:
            assert table.rows
            assert all(len(row) == len(table.headers) for row in table.rows)

    def test_registry_is_the_paper_set_plus_sharded(self):
        """Per-feature serving experiments live in perfbench/, not here;
        ``sharded`` stays until perfbench grows a sharded workload."""
        from repro.bench.figures import ALL_EXPERIMENTS

        assert set(ALL_EXPERIMENTS) == {
            "table2", "fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14a", "fig14b", "sharded",
        }

    def test_fig8_structure(self):
        from repro.bench.figures import fig8

        tables = fig8(SMOKE, include_ch=False)
        assert len(tables) == 4
        ks = tables[0].column("k")
        assert ks == list(SMOKE.k_values)

    def test_fig12_structure(self):
        from repro.bench.figures import fig12

        tables = fig12(SMOKE)
        assert tables[0].column("s") == list(SMOKE.s_values)


class TestArtifacts:
    """BENCH_<name>.json emission (the cross-PR perf trajectory)."""

    def test_write_bench_json_envelope(self, tmp_path):
        from repro.bench.artifacts import write_bench_json
        import json

        path = write_bench_json("unit", {"speedup": 3.5, "points": [1, 2]}, tmp_path)
        assert path.name == "BENCH_unit.json"
        data = json.loads(path.read_text())
        assert data["bench"] == "unit"
        assert data["profile"] in {"smoke", "quick", "full"}
        assert data["speedup"] == 3.5 and data["points"] == [1, 2]
        assert "generated_unix" in data and "python" in data

    def test_directory_env_override(self, tmp_path, monkeypatch):
        from repro.bench.artifacts import bench_json_path, write_bench_json

        monkeypatch.setenv("REPRO_BENCH_JSON_DIR", str(tmp_path / "nested"))
        path = write_bench_json("env", {})
        assert path == bench_json_path("env")
        assert path.parent == tmp_path / "nested" and path.exists()

    def test_missing_artifact_dir_is_created(self, tmp_path, monkeypatch):
        """A fresh checkout pointing REPRO_BENCH_JSON_DIR at a
        not-yet-existing path must get the directory created, not an
        OSError at the end of a long benchmark run."""
        from repro.bench.artifacts import write_bench_json

        deep = tmp_path / "does" / "not" / "exist" / "yet"
        monkeypatch.setenv("REPRO_BENCH_JSON_DIR", str(deep))
        path = write_bench_json("fresh", {"points": []})
        assert path.exists() and path.parent == deep

    def test_sessionfinish_survives_unwritable_artifact_dir(self, tmp_path, monkeypatch):
        """A read-only checkout (or a bogus REPRO_BENCH_JSON_DIR) must
        not fail the benchmark session: the harvest hook diverts the
        artifact to the tmp dir instead."""
        import importlib
        import tempfile
        from pathlib import Path

        conftest = importlib.import_module("benchmarks.conftest")
        blocker = tmp_path / "file.txt"
        blocker.write_text("not a directory")
        # mkdir under a regular file raises OSError even for root
        monkeypatch.setenv("REPRO_BENCH_JSON_DIR", str(blocker / "sub"))
        monkeypatch.setattr(
            conftest, "_RECORDED", {"harness_fallback_probe": [{"test": "t"}]}
        )
        fallback = Path(tempfile.gettempdir()) / "BENCH_harness_fallback_probe.json"
        fallback.unlink(missing_ok=True)
        conftest.pytest_sessionfinish(session=None, exitstatus=0)
        assert fallback.exists()
        fallback.unlink()

    def test_tables_payload_roundtrips_rows(self):
        from repro.bench.artifacts import tables_payload

        table = ExperimentTable("exp", "title", ["A", "B"])
        table.add_row([1, 2.5])
        payload = tables_payload([table])
        assert payload["tables"][0]["rows"] == [[1, 2.5]]
        assert payload["tables"][0]["headers"] == ["A", "B"]
