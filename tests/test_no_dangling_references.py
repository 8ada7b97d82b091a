"""No dangling references: what the docs, CI and docstrings name exists,
and what was retired is named nowhere.

Structural pins, first for the bench estate after it was folded into
``perfbench/``, then for the test suites the whole-stack model
subsumed:

- every repo-relative file named in the README, ``docs/``, the CI
  workflow, the verify skill and the docstrings of every ``src/repro``
  module is in the tree (deleted scripts, deleted suites and
  never-written design notes used to be cited for years);
- every retired name is named nowhere a reader would follow it: one
  row of :data:`RETIRED` per retirement (its id, its patterns, the
  files it scans and the files allowed to match), from the report-only
  gate switch and the bounded-error path to the names nothing called
  or read;
- every section a citation names (``docs/BENCHMARKS.md, "<name>"``)
  is a heading or a bold run-in head of that document."""

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


def _tree(*homes: str) -> "list[Path]":
    """The ``.py``/``.md``/``.yml``/``.toml`` files under ``homes`` (the
    history documents and ``.git`` skipped)."""
    history = {"CHANGES.md", "ROADMAP.md", "ISSUE.md"}
    found = []
    for home in homes:
        root = ROOT / home
        for path in [root] if root.is_file() else sorted(root.rglob("*")):
            if path.suffix not in {".py", ".md", ".yml", ".toml"} or not path.is_file():
                continue
            if path.name in history or ".git" in path.relative_to(ROOT).parts:
                continue
            found.append(path)
    return found


def _py(directory: str, recursive: bool = True) -> "list[Path]":
    root = ROOT / directory
    return sorted(root.rglob("*.py") if recursive else root.glob("*.py"))


#: ``src/``, the README, the docs, the examples and the verify skill
CODE_AND_PROSE = [
    *_py("src"), ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
    *_py("examples", recursive=False), ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
#: the reader-facing prose: the README, the docs and the verify skill
READER_PROSE = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
                ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
_DOCS_AND_TOOLS = ["README.md", "docs", "examples", ".github", ".claude/skills/verify/SKILL.md"]
_HERE = f"tests/{Path(__file__).name}"
_SRC = "src/repro"

#: ``(id, pattern, scope, files allowed to match, read docstrings only)``
#: per retired name: the scope names none of it (a ``.py`` file under
#: ``src/`` is read through its docstrings where the last column says so)
RETIRED = [
    # ``perfbench/compare.py`` is the one wall-clock gate and has no
    # report-only mode; the last ``REPRO_*_GATE`` switch left with the
    # approx script
    ("report-only-gate-switch", r"REPRO_[A-Z]+_GATE", _tree(""), (), False),
    # every method answers exactly: no sketch package, no ``approx``
    # certified-bound plumbing
    ("bounded-error-path",
     r"repro\.sketch|SketchIndex|ApproxSketchSearch|error_bound|check_budget"
     r"|BENCH_approx|bench_approx",
     _tree("src", "benchmarks", "examples", ".github", "README.md", "docs/ARCHITECTURE.md"),
     (), False),
    # batches are the service's, snapshots ``repro.store``'s and the
    # column budget the engine's
    ("engine-duplicates",
     r"[Ee]ngine\.(?:save|load|query_many)\b|QueryService\([^)]*social_cache_bytes=",
     _tree(*_DOCS_AND_TOOLS), (), False),
    # NumPy is the one runtime backend (the scalar reference lives in
    # ``tests/`` as a test oracle)
    ("scalar-backend-switch", r"REPRO_BACKEND|resolve_backend|PythonKernels|backend=",
     _tree(*_DOCS_AND_TOOLS), (), False),
    # the service is its engine's one follower: neither the registry's
    # own swap detection, nor the server's replaced update event, nor the
    # subscription class's old name
    ("wake-up-machinery", r"_ensure_current_engine|_notify_update|_update_event|TopKSubscription",
     READER_PROSE + _py(_SRC), (), True),
    # the engine is a value: no lock and no listeners of its own
    ("engine-lock-and-listeners",
     r"\brw_lock\b|add_location_listener|remove_location_listener|_notify_location",
     CODE_AND_PROSE, (), False),
    # every traversal reads rows off the CSR arrays: no list view, no
    # build lock for it, no graph ``_lists`` slot (``repro.graph`` holds
    # the slot's class and its loops, so there any ``_lists`` is one)
    ("graph-list-view", r"list_view|_LIST_VIEW_LOCK|\bg(?:raph)?\._lists\b",
     CODE_AND_PROSE, (), False),
    ("graph-lists-slot", r"_lists\b", _py(f"{_SRC}/graph", recursive=False), (), False),
    # coordinates, weights and normalisers are checked once where they
    # enter (:mod:`repro.utils.validation`): no local overflow guards
    ("point-overflow-check", r"check_finite_point", _py(_SRC), (), False),
    ("grid-float-cap", r"float_info", _py(f"{_SRC}/spatial", recursive=False), (), False),
    ("kernel-overflow-silencer", r"errstate\(over=", _py(f"{_SRC}/backend", recursive=False),
     (), False),
    ("server-overflow-branch", r"except OverflowError", [ROOT / _SRC / "server" / "app.py"],
     (), False),
    # a normaliser of 0 leaves its term unscaled, so nothing floors a
    # divisor or silences an overflow
    ("zero-normaliser-floor", r"_TINY|1e-300", _py("src"), (), False),
    ("model-overflow-switch", r"seterr", [ROOT / "tests" / "test_service_model.py"], (), False),
    # a location update evicts every cached answer below ``α = 1``: no
    # per-entry move screen, no stored-result class shared with the
    # registry
    ("result-cache-move-screen", r"\bquery_location\b|\bStoredTopK\b", CODE_AND_PROSE,
     (), False),
    # a location update marks the k-d tree and drops the grid and the
    # aggregate index; their next reader builds them from the table
    ("grid-in-place-upkeep", r"def (insert|remove|move|copy)\b",
     [ROOT / _SRC / "spatial" / "grid.py"], (), False),
    ("index-in-place-upkeep",
     r"\b(leaf_of_user|insert_user|remove_user|_widen|_shrink_parent|touches|replace_from)\(",
     _py(_SRC), (), False),
    ("aggregate-per-user-upkeep", r"def (move_user|_shrink)\b",
     _py(f"{_SRC}/index", recursive=False), (), False),
    ("upkeep-layers",
     r"\b(MultiLevelGrid|widen|of_vectors|users_in_leaf|ids_in_leaf|_ids_cache)\b",
     _py(_SRC), (), False),
    # CH and AIS-Cache live in :mod:`repro.bench`, and the CH is its own
    # memoising oracle
    ("figure-only-old-homes",
     r"repro\.graph\.ch\b|repro\.core\.graphdist|repro\.core\.precompute|CHOracle",
     CODE_AND_PROSE, (), False),
    # the NO-OP / REPAIR / RECOMPUTE screen is ``Subscription.classify``
    # and the forward-deterministic set has one name
    ("standing-query-rule",
     r"repro\.stream\.conditions|stream/conditions\.py|\bclassify_location_update\b"
     r"|\bentry_lower_bound\b|\bREPAIRABLE_METHODS\b"
     r"|SubscriptionRegistry\.results\b|\bregistry\.results\(",
     CODE_AND_PROSE + _py("tests"), (_HERE,), False),
    # names nothing called or read (tests/test_every_name_has_a_reader.py),
    # and the server settings and rebuild overrides no caller set
    ("unread-names",
     r"\b(watts_strogatz_edges|barabasi_albert_edges|degree_product_weights|uniform_locations"
     r"|select_landmarks|shortest_path|set_fault_hook|retry_after(?:_s)?|engine_kwargs"
     r"|deltas_applied)\b|(?<!settings\.)\bget_profile\b|\bhealthz\(\)"
     r"|extra\[\"maintained\"\]|ServerConfig \| None|pass either a ServerConfig",
     CODE_AND_PROSE + _py("tests"), (_HERE,), False),
    # settings no caller set (tests/test_every_name_has_a_reader.py's
    # third check) are constants: a load always checks its sha256, a
    # stop always drains, and no heap, burn rate, jitter, sweep count,
    # skew or window is passed in
    ("unset-settings",
     r"\b(verify|p_forward|noise|sweeps|skew|window|heap|drain)=|\bp_forward\b"
     r"|MinHeap\(\w|RoundRobinPolicy\(\w|\b(load|restore)\(mmap|send_sse_comment\(\w+,",
     CODE_AND_PROSE, (), False),
]


@pytest.mark.parametrize(
    "pattern, scope, allowed, docstrings",
    [pytest.param(*row[1:], id=row[0]) for row in RETIRED],
)
def test_a_retired_name_is_named_nowhere(pattern, scope, allowed, docstrings):
    read = _text if docstrings else (lambda path: path.read_text(encoding="utf-8"))
    naming = {str(path.relative_to(ROOT)) for path in scope if re.search(pattern, read(path))}
    assert naming - set(allowed) == set()


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
