"""No dangling references: what the docs, CI and bench docstrings name
exists.

Structural pins for the bench estate after it was folded into
``perfbench/``:

- every repo-relative file named in the README, ``docs/``, the CI
  workflow, the verify skill and the ``repro.bench`` / ``benchmarks``
  docstrings is in the tree (deleted scripts and never-written design
  notes used to be cited for years);
- the only wall-clock-gate escape switches left are the two whose
  layers perfbench does not measure yet.
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
DOCSTRINGED = [
    *sorted((ROOT / "src" / "repro" / "bench").glob("*.py")),
    *sorted((ROOT / "benchmarks").glob("*.py")),
]

#: a path under one of the repo's top-level directories (a placeholder
#: such as ``bench_<name>.py`` or a glob is not a reference)
_PATH = re.compile(r"(?<![\w/.-])((?:benchmarks|docs|examples|perfbench|tests)/[\w./-]*\w)(?![\w<*{])")
#: a bare bench script, bench artifact or markdown file (``--output
#: results.md`` names a file the reader is about to create)
_BARE = re.compile(r"(?<!--output )(?<![\w/.-])(bench_\w+\.py|BENCH_[a-z0-9]+\.json|\w+\.md)\b")
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
        "perfbench/nothing.py; --output results.md; docs/ARCHITECTURE.md"
    )
    assert _missing(text) == [
        "BENCH_gone.json", "DESIGN.md", "bench_gone.py",
        "benchmarks/bench_gone.py", "experiments_output.md", "perfbench/nothing.py",
    ]


def test_only_the_two_unsuperseded_gate_switches_remain():
    """``perfbench/compare.py`` is the one wall-clock gate and has no
    report-only mode; the sharded and approx scripts keep theirs until
    perfbench has a workload for those layers."""
    history = {"CHANGES.md", "ROADMAP.md", "ISSUE.md"}
    found: dict[str, set[str]] = {}
    for path in ROOT.rglob("*"):
        if path.suffix not in {".py", ".md", ".yml", ".toml"} or not path.is_file():
            continue
        if path.name in history or ".git" in path.relative_to(ROOT).parts:
            continue
        for name in re.findall(r"REPRO_[A-Z]+_GATE", path.read_text(encoding="utf-8")):
            found.setdefault(name, set()).add(str(path.relative_to(ROOT)))
    assert set(found) == {"REPRO_SHARDED_GATE", "REPRO_APPROX_GATE"}, found
