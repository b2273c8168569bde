"""Replayable counterexample artifacts and the regression corpus.

A counterexample artifact is one JSON document pinning a (usually
shrunk) exploration cell together with the verdict it produced when it
was written. Two lifecycles share the format:

* **fresh counterexamples** — ``repro explore`` writes one artifact per
  shrunk failure (``verdict.ok == false``): a bug report you can attach
  to an issue and replay anywhere;
* **the regression corpus** — once the bug is fixed, the artifact moves
  into ``tests/exploration_corpus/`` with its verdict re-recorded as
  passing; a parametrized test replays every corpus file and requires
  the verdict to match **byte-for-byte**, so a fixed schedule bug that
  resurfaces (or a run that stops being deterministic) fails loudly.

File names are content-addressed (first 12 hex chars of the cell's
canonical-JSON sha256), so re-writing the same counterexample is
idempotent and two different cells can never collide silently.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..errors import AnalysisError
from .cells import ExplorationCell
from .explorer import ExplorationResult, explore_one
from .oracle import EXACT_LIMIT, Verdict

__all__ = [
    "ARTIFACT_SCHEMA",
    "artifact_name",
    "write_artifact",
    "load_artifact",
    "replay_artifact",
    "corpus_paths",
    "artifact_bytes",
]

ARTIFACT_SCHEMA = 1


def artifact_name(cell: ExplorationCell) -> str:
    digest = hashlib.sha256(cell.canonical().encode("utf-8")).hexdigest()
    return f"{digest[:12]}.json"


def write_artifact(
    directory: str | Path,
    result: ExplorationResult,
    *,
    note: str = "",
) -> Path:
    """Write one artifact under *directory*; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "note": note,
        "cell": result.cell.to_json_dict(),
        "verdict": result.verdict.to_json_dict(),
    }
    path = directory / artifact_name(result.cell)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_artifact(path: str | Path) -> tuple[ExplorationCell, Verdict, str]:
    """Read one artifact: ``(cell, expected verdict, note)``."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise AnalysisError(f"unreadable artifact {path}: {exc}") from None
    if not isinstance(data, dict) or data.get("schema") != ARTIFACT_SCHEMA:
        raise AnalysisError(
            f"artifact {path} has schema {data.get('schema')!r}; "
            f"expected {ARTIFACT_SCHEMA}"
        )
    cell = ExplorationCell.from_json_dict(data["cell"])
    verdict = Verdict.from_json_dict(data["verdict"])
    return cell, verdict, str(data.get("note", ""))


def replay_artifact(
    path: str | Path,
    *,
    exact_limit: int = EXACT_LIMIT,
) -> tuple[Verdict, Verdict]:
    """Re-run one artifact's cell: ``(fresh verdict, stored verdict)``.

    The caller asserts equality; both are returned (rather than a bool)
    so a failing regression test can show the divergence.
    """
    cell, expected, _note = load_artifact(path)
    fresh = explore_one(cell, exact_limit=exact_limit)
    return fresh.verdict, expected


def corpus_paths(directory: str | Path) -> tuple[Path, ...]:
    """Sorted artifact files under a corpus directory (empty if absent)."""
    directory = Path(directory)
    if not directory.is_dir():
        return ()
    return tuple(sorted(directory.glob("*.json")))


def artifact_bytes(verdict: Verdict) -> bytes:
    """Canonical byte encoding of a verdict (what "byte-identical
    verdicts" compares across serial / parallel replays)."""
    return json.dumps(
        verdict.to_json_dict(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
