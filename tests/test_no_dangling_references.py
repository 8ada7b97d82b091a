"""No dangling references: what the docs, CI and docstrings name exists.

Structural pins, first for the bench estate after it was folded into
``perfbench/``, then for the test suites the whole-stack model
subsumed:

- every repo-relative file named in the README, ``docs/``, the CI
  workflow, the verify skill and the docstrings of every ``src/repro``
  module is in the tree (deleted scripts, deleted suites and
  never-written design notes used to be cited for years);
- no wall-clock-gate escape switch is left: ``perfbench/compare.py``
  is the one gate;
- the retired bounded-error path (the sketch package, ``approx``,
  ``budget``, ``error_bound``) is named nowhere a reader would follow
  it, and neither are the deleted engine duplicates (``engine.save``,
  ``GeoSocialEngine.load``, ``engine.query_many``, the service-level
  ``social_cache_bytes``), nor the retired scalar backend switch, nor
  the graph's retired list view;
- the overflow guards the input domain subsumed stay deleted, and so
  do the zero-normaliser floor and the model's NumPy overflow switch
  that existed for the domain's one former exception;
- the result cache's per-entry move screen stays deleted, and so does
  the in-place upkeep of the grid and the aggregate index;
- the figure-only modules that left the serving packages for
  ``repro.bench`` (CH, its oracle, AIS-Cache) are named by their old
  homes nowhere;
- the standing-query rule's retired module, its free functions, the
  repairable-methods alias and the registry's bulk read are named
  nowhere;
- every section a citation names (``docs/BENCHMARKS.md, "<name>"``)
  is a heading or a bold run-in head of that document.
"""

from __future__ import annotations

import ast
import doctest
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROSE = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
DOCSTRINGED = sorted((ROOT / "src" / "repro").rglob("*.py"))

#: a path under one of the repo's top-level directories (a placeholder
#: such as ``bench_<name>.py`` or a glob is not a reference)
_PATH = re.compile(r"(?<![\w/.-])((?:benchmarks|docs|examples|perfbench|tests)/[\w./-]*\w)(?![\w<*{])")
#: a bare bench script, bench artifact or markdown file
_BARE = re.compile(r"(?<![\w/.-])(bench_\w+\.py|BENCH_\w+\.json|\w+\.md)\b")
#: where a bare name may live
_HOMES = ("", "benchmarks", "docs", "perfbench")


def _docstrings(path: Path) -> str:
    """Every docstring of a module, doctest examples (which write
    scratch files by design) dropped."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parser = doctest.DocTestParser()
    prose = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                prose += [part for part in parser.parse(doc) if isinstance(part, str)]
    return "\n".join(prose)


def _text(path: Path) -> str:
    return _docstrings(path) if path.suffix == ".py" else path.read_text(encoding="utf-8")


def _missing(text: str) -> list[str]:
    missing = [ref for ref in _PATH.findall(text) if not (ROOT / ref).exists()]
    for name in _BARE.findall(text):
        if not any((ROOT / home / name).exists() for home in _HOMES):
            missing.append(name)
    return sorted(set(missing))


@pytest.mark.parametrize(
    "path", PROSE + DOCSTRINGED, ids=lambda p: str(p.relative_to(ROOT))
)
def test_every_file_a_document_names_exists(path):
    assert path.exists(), f"{path} is missing"
    assert _missing(_text(path)) == []


def test_the_reference_scanner_sees_what_it_should():
    """The patterns catch the three kinds of reference that dangled."""
    text = (
        "see DESIGN.md's table; writes ``experiments_output.md``; "
        "(`benchmarks/bench_gone.py`), bench_gone.py, BENCH_gone.json, "
        "perfbench/nothing.py; --output results.md; docs/ARCHITECTURE.md; "
        "--output BENCH_paper_smoke.json"
    )
    assert _missing(text) == [
        "BENCH_gone.json", "DESIGN.md", "bench_gone.py",
        "benchmarks/bench_gone.py", "experiments_output.md", "perfbench/nothing.py",
        "results.md",
    ]


def _scan(pattern: str, paths) -> dict[str, set[str]]:
    """``{match: files}`` for ``pattern`` over the ``.py``/``.md``/
    ``.yml``/``.toml`` files under ``paths`` (the history documents and
    ``.git`` skipped)."""
    history = {"CHANGES.md", "ROADMAP.md", "ISSUE.md"}
    found: dict[str, set[str]] = {}
    for root in paths:
        for path in [root] if root.is_file() else root.rglob("*"):
            if path.suffix not in {".py", ".md", ".yml", ".toml"} or not path.is_file():
                continue
            if path.name in history or ".git" in path.relative_to(ROOT).parts:
                continue
            for name in re.findall(pattern, path.read_text(encoding="utf-8")):
                found.setdefault(name, set()).add(str(path.relative_to(ROOT)))
    return found


def test_no_report_only_gate_switch_remains():
    """``perfbench/compare.py`` is the one wall-clock gate and has no
    report-only mode; the last ``REPRO_*_GATE`` switch left with the
    approx script."""
    assert _scan(r"REPRO_[A-Z]+_GATE", [ROOT]) == {}


def test_the_bounded_error_path_is_named_nowhere():
    """Every method answers exactly: the code, benchmarks, examples, CI
    and the two reader-facing documents name neither the sketch package
    nor ``approx``'s certified-bound plumbing (its gate switch is the
    test above's)."""
    retired = (
        r"repro\.sketch|SketchIndex|ApproxSketchSearch|error_bound|check_budget"
        r"|BENCH_approx|bench_approx"
    )
    homes = ["src", "benchmarks", "examples", ".github", "README.md", "docs/ARCHITECTURE.md"]
    assert _scan(retired, [ROOT / home for home in homes]) == {}


def test_the_deleted_engine_entry_points_are_named_nowhere():
    """Batches are the service's, snapshots ``repro.store``'s and the
    column budget the engine's: the README, the docs, the examples, the
    CI workflow and the verify skill name none of the deleted
    duplicates."""
    retired = r"[Ee]ngine\.(?:save|load|query_many)\b|QueryService\([^)]*social_cache_bytes="
    homes = ["README.md", "docs", "examples", ".github", ".claude/skills/verify/SKILL.md"]
    assert _scan(retired, [ROOT / home for home in homes]) == {}


def test_the_scalar_backend_switch_is_named_nowhere():
    """NumPy is the one runtime backend: the README, the docs, the
    examples, the CI workflow and the verify skill name no backend
    selector, no environment switch and no scalar kernels class (the
    scalar reference lives in ``tests/`` as a test oracle)."""
    retired = r"REPRO_BACKEND|resolve_backend|PythonKernels|backend="
    homes = ["README.md", "docs", "examples", ".github", ".claude/skills/verify/SKILL.md"]
    assert _scan(retired, [ROOT / home for home in homes]) == {}


def test_the_retired_wake_up_machinery_is_named_nowhere():
    """The service is its engine's one follower: the README, the docs,
    the verify skill and the ``src/`` docstrings name neither the
    registry's own swap detection nor the server's replaced update
    event, nor the subscription class's old name."""
    retired = r"_ensure_current_engine|_notify_update|_update_event|TopKSubscription"
    prose = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
             ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    found = {path.name for path in prose if re.search(retired, path.read_text(encoding="utf-8"))}
    found |= {path.name for path in DOCSTRINGED if re.search(retired, _docstrings(path))}
    assert found == set()


#: ``src/``, the README, the docs, the examples and the verify skill
CODE_AND_PROSE = [
    *sorted((ROOT / "src").rglob("*.py")), ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")), *sorted((ROOT / "examples").glob("*.py")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]


def _naming(pattern: str, paths) -> set[str]:
    """The files among ``paths`` whose text matches ``pattern``."""
    return {
        str(path.relative_to(ROOT))
        for path in paths
        if re.search(pattern, path.read_text(encoding="utf-8"))
    }


def test_only_the_service_follows_an_engine():
    """The engine is a value: it has no lock and no listeners, so only
    its service decides which changes reach a standing answer.  The
    retired engine lock and listener API is named nowhere in ``src/``,
    the README, the docs, the examples or the verify skill."""
    retired = r"\brw_lock\b|add_location_listener|remove_location_listener|_notify_location"
    assert _naming(retired, CODE_AND_PROSE) == set()


def test_the_csr_arrays_are_the_graphs_only_form():
    """Every traversal reads rows off the CSR arrays: the retired list
    view, its build lock and the graph's ``_lists`` slot are named
    nowhere in ``src/``, the README, the docs, the examples or the
    verify skill (``repro.graph`` holds the slot's class and its
    loops; elsewhere only a graph's ``_lists`` is the slot)."""
    assert _naming(r"list_view|_LIST_VIEW_LOCK|\bg(?:raph)?\._lists\b", CODE_AND_PROSE) == set()
    assert _naming(r"_lists\b", sorted((ROOT / "src" / "repro" / "graph").glob("*.py"))) == set()


def test_the_overflow_guards_the_domain_subsumes_stay_gone():
    """Coordinates, weights and normalisers are checked once where they
    enter (:mod:`repro.utils.validation`), so the local overflow guards
    that grew one per hostile value stay deleted: the old point check
    in ``src/``, the grid's ``float_info`` cap under ``spatial/``, an
    overflow-silencing ``errstate`` in the kernels and the server's
    ``OverflowError`` branch."""
    src = ROOT / "src" / "repro"
    assert _naming(r"check_finite_point", sorted(src.rglob("*.py"))) == set()
    assert _naming(r"float_info", sorted((src / "spatial").glob("*.py"))) == set()
    assert _naming(r"errstate\(over=", sorted((src / "backend").glob("*.py"))) == set()
    assert _naming(r"except OverflowError", [src / "server" / "app.py"]) == set()


def test_the_zero_normaliser_exception_stays_gone():
    """A normaliser of 0 leaves its term unscaled, so every score is
    finite and nothing floors a divisor or silences an overflow: no
    ``_TINY`` or ``1e-300`` under ``src/``, no ``seterr`` in the state
    machine."""
    assert _naming(r"_TINY|1e-300", sorted((ROOT / "src").rglob("*.py"))) == set()
    assert _naming(r"seterr", [ROOT / "tests" / "test_service_model.py"]) == set()


def test_the_result_caches_move_screen_is_named_nowhere():
    """A location update evicts every cached answer below ``α = 1``,
    and only the subscription registry screens: the deleted per-entry
    screen's ``query_location`` callback and the stored-result class
    the cache shared with the registry are named nowhere in ``src/``,
    the README, the docs, the examples or the verify skill."""
    assert _naming(r"\bquery_location\b|\bStoredTopK\b", CODE_AND_PROSE) == set()


def test_no_spatial_index_is_maintained_in_place():
    """A location update marks the k-d tree and drops the grid and the
    aggregate index; their next reader builds them from the table.  The
    in-place upkeep they had stays deleted from ``src/``: the grid's
    insert / remove / move / copy, the multigrid's ``leaf_of_user``, the
    aggregate index's per-user maintenance and its summary helpers, and
    the layers that upkeep needed: the ``MultiLevelGrid`` pass-through,
    the widening summary and the grid's list-and-array double storage."""
    src = ROOT / "src" / "repro"
    grids = [src / "spatial" / "grid.py"]
    assert _naming(r"def (insert|remove|move|copy)\b", grids) == set()
    upkeep = (
        r"\b(leaf_of_user|insert_user|remove_user|_widen|_shrink_parent|touches|replace_from)\("
    )
    assert _naming(upkeep, sorted(src.rglob("*.py"))) == set()
    assert _naming(r"def (move_user|_shrink)\b", sorted((src / "index").glob("*.py"))) == set()
    layers = r"\b(MultiLevelGrid|widen|of_vectors|users_in_leaf|ids_in_leaf|_ids_cache)\b"
    assert _naming(layers, sorted(src.rglob("*.py"))) == set()


def test_the_figure_only_modules_old_homes_are_named_nowhere():
    """CH and AIS-Cache live in :mod:`repro.bench` (``bench/ch.py``,
    ``bench/aiscache.py``), and the CH is its own memoising oracle:
    ``src/``, the README, the docs, the examples and the verify skill
    name neither their old serving modules nor the retired oracle
    class."""
    retired = r"repro\.graph\.ch\b|repro\.core\.graphdist|repro\.core\.precompute|CHOracle"
    assert _naming(retired, CODE_AND_PROSE) == set()


def test_the_standing_query_rule_lives_on_its_subscription():
    """The NO-OP / REPAIR / RECOMPUTE screen is ``Subscription.classify``
    and the forward-deterministic set has one name: ``src/``, the README,
    the docs, the examples, the verify skill and the other tests name
    neither the retired ``repro.stream.conditions`` and its free
    functions, nor the ``REPAIRABLE_METHODS`` alias, nor the registry's
    unread ``results()``."""
    retired = (
        r"repro\.stream\.conditions|stream/conditions\.py|\bclassify_location_update\b"
        r"|\bentry_lower_bound\b|\bREPAIRABLE_METHODS\b"
        r"|SubscriptionRegistry\.results\b|\bregistry\.results\("
    )
    here = Path(__file__).name
    tests = [path for path in sorted((ROOT / "tests").rglob("*.py")) if path.name != here]
    assert _naming(retired, CODE_AND_PROSE + tests) == set()


#: ``docs/BENCHMARKS.md, "<name>"`` or ``docs/ARCHITECTURE.md
#: ("<name>")``, the path possibly in backticks
_CITATION = re.compile(r'`?docs/(BENCHMARKS|ARCHITECTURE)\.md`?(?:,\s*|\s*\()"([^"]+)"')
#: ``the "<name>" section of docs/ARCHITECTURE.md``
_SECTION_OF = re.compile(r'"([^"]+)" section of `?docs/(BENCHMARKS|ARCHITECTURE)\.md')


def _citations(text: str) -> "list[tuple[str, str]]":
    """``(document, section)`` per citation, read across line breaks
    and the ``#`` / ``#:`` that continue a comment; a section's
    backticks dropped."""
    flat = re.sub(r"\s*\n\s*(?:#:?\s*)?", " ", text)
    found = _CITATION.findall(flat) + [(doc, name) for name, doc in _SECTION_OF.findall(flat)]
    return [(doc, name.replace("`", "")) for doc, name in found]


def _sections(name: str) -> "set[str]":
    """The headings and bold run-in heads of ``docs/<name>.md`` (a run-in
    head without its closing period or colon), backticks dropped."""
    text = (ROOT / "docs" / f"{name}.md").read_text(encoding="utf-8").replace("`", "")
    heads = {line.lstrip("#").strip() for line in text.splitlines() if line.startswith("#")}
    return heads | {head.rstrip(".:") for head in re.findall(r"^\*\*(.+?)\*\*", text, re.M)}


def test_every_cited_section_exists():
    """A citation of a docs section names one that is there: ``src/``,
    the examples, the README, the docs and the verify skill cite no
    section a change renamed or deleted."""
    sections = {name: _sections(name) for name in ("BENCHMARKS", "ARCHITECTURE")}
    stale = [
        f"{path.relative_to(ROOT)}: docs/{document}.md, {section!r}"
        for path in CODE_AND_PROSE
        for document, section in _citations(path.read_text(encoding="utf-8"))
        if section not in sections[document]
    ]
    assert stale == []


def test_the_citation_scanner_sees_what_it_should():
    text = (
        '#: rebuilt (docs/BENCHMARKS.md, "What does\n#: not pay") and\n'
        '`docs/ARCHITECTURE.md`, "`backend` — the data\nplane"; '
        'docs/BENCHMARKS.md ("Scale profiles"); docs/BENCHMARKS.md, `plan`; '
        'the "stream — continuous\nqueries" section of `docs/ARCHITECTURE.md`'
    )
    assert _citations(text) == [
        ("BENCHMARKS", "What does not pay"),
        ("ARCHITECTURE", "backend — the data plane"),
        ("BENCHMARKS", "Scale profiles"),
        ("ARCHITECTURE", "stream — continuous queries"),
    ]
    assert {"What does not pay", "Scale profiles", "The record"} <= _sections("BENCHMARKS")
