"""Every Markdown document the README or the Python sources under
``src/``, ``examples/`` and ``benchmarks/`` cite exists in the
repository."""

from __future__ import annotations

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
