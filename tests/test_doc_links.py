"""Every Markdown document the README or the Python sources under
``src/``, ``examples/`` and ``benchmarks/`` cite exists in the
repository, and every ``repro`` object a docstring under ``src/``
cross-references resolves."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "examples", "benchmarks")
#: Markdown files the program writes as output rather than cites
GENERATED = {"report.md"}
CITATION = re.compile(r"[\w./-]*\w\.md\b")


def _citing_files() -> list[Path]:
    files = [ROOT / "README.md"]
    for tree in TREES:
        files += sorted((ROOT / tree).rglob("*.py"))
    return files


def _citations() -> list[tuple[str, str]]:
    found = []
    for path in _citing_files():
        for name in sorted(set(CITATION.findall(path.read_text(encoding="utf-8")))):
            if Path(name).name not in GENERATED:
                found.append((str(path.relative_to(ROOT)), name))
    return found


def test_the_scan_sees_the_known_citations():
    cited = {name for _, name in _citations()}
    assert {"PAPER.md", "ROADMAP.md", "PAPERS.md"} <= cited


@pytest.mark.parametrize("source,name", _citations())
def test_cited_markdown_exists(source, name):
    assert (ROOT / name).is_file() or (ROOT / source).parent.joinpath(name).is_file(), (
        f"{source} cites {name}, which does not exist"
    )


#: a Sphinx cross-reference to a ``repro`` object, with or without the
#: ``~`` that shortens its rendered name
XREF = re.compile(r":(?:func|class|meth|data|attr|mod|exc):`~?(repro(?:\.\w+)+)`")


def _xrefs() -> list[tuple[str, str]]:
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for target in XREF.findall(path.read_text(encoding="utf-8")):
            found.add((str(path.relative_to(ROOT)), target))
    return sorted(found)


def _resolve(target: str):
    """Import the longest module prefix of *target*, then ``getattr``
    the rest; raises when any step is missing."""
    parts = target.split(".")
    for i in range(len(parts), 0, -1):
        module = ".".join(parts[:i])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name is None or not module.startswith(exc.name):
                raise
            continue
        for name in parts[i:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(target)


def test_the_scan_sees_the_known_xrefs():
    targets = {target for _, target in _xrefs()}
    assert len(targets) >= 100
    assert "repro.protocol.rounds.ImprovementProcess" in targets


@pytest.mark.parametrize("source,target", _xrefs())
def test_docstring_xref_resolves(source, target):
    try:
        _resolve(target)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{source} cites {target}, which does not resolve: {exc}")
