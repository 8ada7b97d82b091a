"""Documentation that executes: README, ARCHITECTURE, and docstrings.

Three promises are pinned here:

1. every ``>>>`` example in README.md and docs/ARCHITECTURE.md runs and
   produces exactly the shown output;
2. every module holding a public export passes its docstring doctests;
3. every class/function exported in ``repro.__all__`` carries a
   docstring *with a runnable usage example* (the ``>>>`` form doctest
   picks up), so the first thing a user reads is something they can
   paste.
"""

from __future__ import annotations

import doctest
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

import repro
from repro.cli.format import format_output

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "docs" / "ARCHITECTURE.md",
]

#: every module that defines a ``repro.__all__`` export or public
#: service/bench API, i.e. everywhere docstring examples live
DOCUMENTED_MODULES = [
    "repro",
    "repro.backend",
    "repro.backend.numpy_backend",
    "repro.core.engine",
    "repro.core.searcher",
    "repro.core.sfa",
    "repro.core.spa",
    "repro.core.tsa",
    "repro.core.ais",
    "repro.core.bounded",
    "repro.core.bruteforce",
    "repro.core.ranking",
    "repro.core.result",
    "repro.core.stats",
    "repro.graph.socialgraph",
    "repro.spatial.point",
    "repro.index.aggregate",
    "repro.datasets.synthetic",
    "repro.plan.rules",
    "repro.plan.planner",
    "repro.service.model",
    "repro.service.cache",
    "repro.service.service",
    "repro.store",
    "repro.store.format",
    "repro.store.snapshot",
    "repro.store.manager",
    "repro.stream",
    "repro.stream.registry",
    "repro.stream.subscription",
    "repro.server.app",
    "repro.server.client",
    "repro.server.errors",
    "repro.cli.format",
    "repro.utils.concurrency",
    "repro.bench.workloads",
    "repro.bench.variants",
    "repro.bench.aiscache",
]


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_markdown_examples_execute(path):
    assert path.exists(), f"{path.name} is missing"
    result = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
    )
    assert result.attempted > 0, f"{path.name} has no runnable examples"
    assert result.failed == 0, f"{result.failed} doctest failures in {path.name}"


@pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
def test_module_docstring_examples_execute(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(
        module,
        verbose=False,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
    )
    assert result.failed == 0, f"{result.failed} doctest failures in {module_name}"


def test_every_public_export_has_a_runnable_example():
    missing_doc = []
    missing_example = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue  # plain values: __version__, METHODS
        doc = inspect.getdoc(obj) or ""
        if not doc.strip():
            missing_doc.append(name)
        elif ">>>" not in doc:
            missing_example.append(name)
    assert not missing_doc, f"exports without docstrings: {missing_doc}"
    assert not missing_example, (
        f"exports whose docstrings lack a runnable ('>>>') example: {missing_example}"
    )


def test_readme_documents_every_method():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    from repro.core.engine import METHODS

    for method in METHODS:
        # a row of the "Served methods" table, not a passing mention
        assert f"\n| `{method}` |" in readme, f"method {method!r} missing from README"
    # the planner paragraph names what interior ``auto`` runs
    from repro.plan.planner import AUTO_METHOD

    assert f"interior `auto` resolves to `{AUTO_METHOD}`" in " ".join(readme.split())


def test_citation_is_consistent():
    """The stale 'TKDE 27(3), 2015' vs 'ICDE 2016' mismatch must not
    come back: the package docstring and PAPER.md agree on the venue."""
    paper = (REPO_ROOT / "PAPER.md").read_text(encoding="utf-8").lower()
    package_doc = (repro.__doc__ or "").lower()
    assert "icde" in paper
    assert "icde 2016" in package_doc
    assert "tkde" not in package_doc


#: a section rendered from the committed record: ``<!-- record:
#: EXPERIMENT / TABLE -->``, the table's fenced ``format_output``
#: render, ``<!-- /record -->``
_SECTION = re.compile(r"<!-- record: (\S+) / (.+?) -->\n(.*?)<!-- /record -->", re.S)


def _render(table: dict) -> str:
    rows = [dict(zip(table["headers"], row)) for row in table["rows"]]
    return f"```\n{format_output(rows, table['headers'], 'table')}\n```\n"


def test_every_rendered_section_equals_its_render():
    """Numbers the docs show from a ``smoke`` run are rendered from
    ``BENCH_paper_smoke.json``, never copied by hand: each marked
    section reads exactly what the record renders to."""
    record = json.loads((REPO_ROOT / "BENCH_paper_smoke.json").read_text(encoding="utf-8"))
    sections = 0
    for path in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]:
        for experiment, name, body in _SECTION.findall(path.read_text(encoding="utf-8")):
            sections += 1
            expected = _render(record["experiments"][experiment][name])
            assert body == expected, (
                f"{path.name}, {experiment} / {name}: the section should read\n{expected}"
            )
    assert sections >= 3
