"""Direct property tests of SSRQ Definition 1 and the paper's bounds.

Beyond agreeing with brute force, each result must satisfy the
definition itself: every user outside the result R scores no better
than ``f_k`` (the worst score in R), and R contains exactly the k
finite-score minimisers.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import GeoSocialEngine
from repro.core.ranking import RankingFunction
from tests.conftest import query_with, random_instance

INF = math.inf


def assert_definition_holds(engine: GeoSocialEngine, result) -> None:
    """Definition 1: for every u' not in R (u' != u_q):
    f(u_q, u') >= f_k."""
    rank = RankingFunction(result.alpha, engine.normalization)
    from repro.graph.traversal import dijkstra_distances

    social = dijkstra_distances(engine.graph, result.query_user)
    in_result = set(result.users)
    fk = result.fk
    for user in range(engine.graph.n):
        if user == result.query_user or user in in_result:
            continue
        p = social.get(user, INF)
        d = engine.locations.distance(result.query_user, user)
        assert rank.score(p, d) >= fk - 1e-9
    # Scores reported must be the true f values.
    for nb in result.neighbors:
        p = social.get(nb.user, INF)
        d = engine.locations.distance(result.query_user, nb.user)
        assert math.isclose(nb.score, rank.score(p, d), abs_tol=1e-9)


@pytest.mark.parametrize("method", ["sfa", "spa", "tsa", "ais", "ais-bid"])
def test_definition_on_fixed_instance(method):
    graph, locations = random_instance(100, seed=411, coverage=0.8)
    engine = GeoSocialEngine(graph, locations, num_landmarks=3, s=3, seed=4)
    for user in list(locations.located_users())[:5]:
        result = query_with(engine, user, k=7, alpha=0.4, method=method)
        assert_definition_holds(engine, result)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_definition_random(seed):
    rng = random.Random(seed)
    n = rng.randint(15, 60)
    graph, locations = random_instance(n, seed % 4000, coverage=rng.choice([0.6, 1.0]))
    engine = GeoSocialEngine(graph, locations, num_landmarks=min(2, n), s=3, seed=1)
    located = list(locations.located_users())
    if not located:
        return
    user = rng.choice(located)
    result = engine.query(
        user, k=rng.choice([1, 4]), alpha=rng.choice([0.25, 0.75]), method="ais"
    )
    assert_definition_holds(engine, result)


def test_result_reports_raw_distances():
    """Neighbor.social/spatial must be raw (unnormalised) distances."""
    graph, locations = random_instance(60, seed=421, coverage=1.0)
    engine = GeoSocialEngine(graph, locations, num_landmarks=2, s=3)
    user = next(iter(engine.located_users()))
    result = engine.query(user, k=5, alpha=0.5, method="ais")
    for nb in result:
        assert nb.spatial == pytest.approx(engine.locations.distance(user, nb.user))
        assert nb.spatial <= engine.normalization.d_max + 1e-9


def test_cli_main(tmp_path, capsys):
    """The ``python -m repro.bench`` entry point end-to-end (tiny run)."""
    from repro.bench.__main__ import main

    out = tmp_path / "results.md"
    code = main(["table2", "fig7b", "--profile", "smoke", "--output", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "Table 2" in captured
    assert "Figure 7b" in captured
    text = out.read_text()
    assert text.startswith("# Regenerated evaluation")
    assert "| alpha |" in text.replace("  ", " ")


def test_cli_rejects_unknown_experiment():
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_rejects_unknown_profile(capsys):
    """A bad ``--profile`` is a usage error (exit 2), not a traceback."""
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["table2", "--profile", "gigantic"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'gigantic'" in capsys.readouterr().err
