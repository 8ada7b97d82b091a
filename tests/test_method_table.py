"""The method table is the one place the serving stack spells what it
knows about a method: its invariants, the constants derived from it,
the builder dict beside it, and a written-once guard over ``src/repro``
(in the style of ``tests/test_maintenance_differential.py``)."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.bench.variants import VARIANTS
from repro.core.engine import (
    FORWARD_DETERMINISTIC_METHODS,
    METHODS,
    SEARCHER_BUILDERS,
    GeoSocialEngine,
)
from repro.core.request import QueryRequest
from repro.plan.rules import AUTO, METHOD_TABLE, MethodSpec, route_method
from tests.conftest import random_instance

SRC = Path(repro.__file__).resolve().parent


def test_the_served_tier_is_seven_methods_and_four_parameters():
    assert METHODS == (
        "sfa", "spa", "tsa", "tsa-qc", "ais", "bounded", "bruteforce"
    )
    assert [f.name for f in dataclasses.fields(QueryRequest)] == [
        "user", "k", "alpha", "method",
    ]
    assert AUTO not in METHOD_TABLE
    assert not set(VARIANTS) & set(METHOD_TABLE), "a variant is served"


@pytest.mark.parametrize("name", METHODS)
def test_row_invariants(name):
    spec = METHOD_TABLE[name]
    assert isinstance(spec, MethodSpec)
    for route in (spec.alpha0, spec.alpha1):
        assert route is None or route in METHOD_TABLE, f"{name} routes off the table"
    assert isinstance(spec.forward, bool)
    # an endpoint route is final: the target does not route again there
    assert route_method(route_method(name, 0.0), 0.0) == route_method(name, 0.0)
    assert route_method(route_method(name, 1.0), 1.0) == route_method(name, 1.0)


def test_derived_constants_equal_their_derivations():
    rows = METHOD_TABLE.items()
    assert METHODS == tuple(METHOD_TABLE)
    assert FORWARD_DETERMINISTIC_METHODS == {n for n, s in rows if s.forward}
    assert FORWARD_DETERMINISTIC_METHODS == {
        "sfa", "spa", "tsa", "tsa-qc", "bounded", "bruteforce"
    }
    assert [f.name for f in dataclasses.fields(MethodSpec)] == ["alpha0", "alpha1", "forward"]


def test_every_row_has_a_builder_and_every_builder_a_row():
    assert set(SEARCHER_BUILDERS) == set(METHOD_TABLE)
    graph, locations = random_instance(40, seed=3, coverage=0.9)
    engine = GeoSocialEngine(graph, locations, num_landmarks=2, s=3, seed=1)
    for name in METHODS:
        assert engine.searcher(name) is engine.searcher(name), name
    for name in (*VARIANTS, AUTO, "warp"):
        with pytest.raises(ValueError, match="unknown method"):
            engine.searcher(name)


def _method_name_collections(path: Path):
    """``(lineno, names)`` for every set/tuple/list/dict-key literal in
    ``path`` holding two or more served-method names."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
            elements = node.elts
        elif isinstance(node, ast.Dict):
            elements = [key for key in node.keys if key is not None]
        else:
            continue
        names = [
            e.value for e in elements
            if isinstance(e, ast.Constant) and e.value in METHOD_TABLE
        ]
        if len(names) >= 2:
            yield node.lineno, names


def test_method_names_are_collected_in_one_place():
    """Outside the table (``plan/rules.py``), the builder dict
    (``core/engine.py``) and the reproduction tier (``bench/``), no
    module of ``src/repro`` holds a literal collection of method names:
    a property of methods is a column of the table, not a new set."""
    allowed = {SRC / "plan" / "rules.py": 1, SRC / "core" / "engine.py": 1}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if (SRC / "bench") in path.parents:
            continue
        found = list(_method_name_collections(path))
        if len(found) != allowed.get(path, 0):
            offenders.append((str(path.relative_to(SRC)), found))
    assert not offenders, offenders
