"""Public API surface: imports, __all__ hygiene, and docstrings.

A downstream user's first contact is ``import repro``; these tests pin
the promises the README makes.
"""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.graph",
    "repro.spatial",
    "repro.index",
    "repro.topk",
    "repro.datasets",
    "repro.bench",
    "repro.plan",
    "repro.service",
    "repro.store",
    "repro.stream",
    "repro.utils",
]


def test_version():
    assert repro.__version__ == "1.10.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackages_import_and_document(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_readme_quickstart_names_exist():
    # The names used in README's quickstart snippet.
    from repro import GeoSocialEngine, gowalla_like  # noqa: F401

    assert callable(gowalla_like)
    assert hasattr(GeoSocialEngine, "query")
    assert hasattr(GeoSocialEngine, "move_user")


def test_the_engine_surface_has_one_home_per_operation():
    """Batches are ``QueryService.query_many``'s and snapshots
    ``save_engine`` / ``load_engine``'s; the engine builds its own
    planner and alone carries the social column budget."""
    from repro import GeoSocialEngine, QueryService

    assert sorted(name for name in vars(GeoSocialEngine) if not name.startswith("_")) == [
        "aggregate", "close", "forget_location", "from_dataset", "grid",
        "landmarks", "located_users", "move_user", "query", "resolve_method",
        "searcher", "with_graph",
    ]
    engine_options = inspect.signature(GeoSocialEngine.__init__).parameters
    assert "planner" not in engine_options and "social_cache_bytes" in engine_options
    assert "social_cache_bytes" not in inspect.signature(QueryService.__init__).parameters


def test_one_backend_and_no_selector(monkeypatch):
    """NumPy is the one backend: ``repro`` exports no backend selector,
    ``repro.backend`` exports only ``NumpyKernels``, the engine takes no
    ``backend=`` and every engine runs ``NumpyKernels``, whatever the
    environment says."""
    monkeypatch.setenv("REPRO_BACKEND", "python")
    import repro.backend
    from repro import GeoSocialEngine, gowalla_like
    from repro.backend import NumpyKernels

    assert not [name for name in repro.__all__ if "backend" in name.lower()]
    assert not hasattr(repro, "resolve_backend")
    assert repro.backend.__all__ == ["NumpyKernels"]
    assert "backend" not in inspect.signature(GeoSocialEngine.__init__).parameters
    engine = GeoSocialEngine.from_dataset(gowalla_like(n=60, seed=1))
    assert type(engine.kernels) is NumpyKernels and not hasattr(engine, "backend")


def test_methods_constant_documented_in_engine():
    from repro.core.engine import METHODS, GeoSocialEngine

    doc = inspect.getmodule(GeoSocialEngine).__doc__
    for method in METHODS:
        assert method in doc, f"method {method!r} missing from engine docs"


def test_public_classes_have_docstrings():
    public = [
        repro.GeoSocialEngine,
        repro.SocialGraph,
        repro.LocationTable,
        repro.AggregateIndex,
        repro.RankingFunction,
        repro.TopKBuffer,
        repro.SSRQResult,
        repro.SearchStats,
        repro.SocialFirstSearch,
        repro.SpatialFirstSearch,
        repro.TwofoldSearch,
        repro.AggregateIndexSearch,
        repro.BruteForceSearch,
        repro.SocialNeighborCache,
        repro.CachedSocialFirst,
    ]
    for cls in public:
        assert cls.__doc__ and cls.__doc__.strip(), f"{cls.__name__} lacks a docstring"


def test_dataset_builders_are_deterministic_across_import():
    a = repro.gowalla_like(n=200, seed=3)
    b = repro.gowalla_like(n=200, seed=3)
    assert sorted(a.graph.edges()) == sorted(b.graph.edges())
