"""Baseline trajectory files: ``BENCH_<nnnn>.json`` at the repo root.

Each file is one point on the repository's performance trajectory —
conventionally numbered after the PR that recorded it (``BENCH_0005``
for PR 5). A baseline carries:

* the **work section** — per-bench integer work metrics (events,
  messages, rounds, bits, …). Work is a pure function of the code and
  the specs: machine-independent, identical on every run, and gateable
  **exactly**;
* the **timing section** — min-of-k seconds plus median/IQR
  spread. Time is machine- and load-dependent, so it is history only:
  speed is judged by pairing two revisions on one machine
  (:func:`repro.perf.runner.run_pairs`), never against a file;
* provenance — machine fingerprint, git revision, free-form notes.

Timing and provenance never participate in the byte-identity contract;
:func:`work_bytes` is the canonical encoding the determinism tests and
CI compare.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..errors import AnalysisError

__all__ = [
    "BASELINE_SCHEMA",
    "BenchResult",
    "Baseline",
    "machine_fingerprint",
    "git_revision",
    "save_baseline",
    "load_baseline",
    "work_bytes",
    "baseline_paths",
    "latest_baseline_path",
]

BASELINE_SCHEMA = 1

#: Trajectory file pattern at the repo root.
BASELINE_GLOB = "BENCH_*.json"


def _cpu_model() -> str:
    """CPU model string (``/proc/cpuinfo`` on Linux; best-effort)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_fingerprint() -> dict[str, Any]:
    """Identity of the measuring machine, recorded with each baseline
    so its timing section can be read as history. No verdict reads it."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "cpus": os.cpu_count() or 1,
    }


def git_revision(root: str | Path = ".") -> str:
    """Short git revision of *root* (``"unknown"`` outside a checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _check_work(name: str, work: Mapping[str, Any]) -> dict[str, int]:
    clean: dict[str, int] = {}
    for key, value in work.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise AnalysisError(
                f"bench {name!r} work metric {key!r} must be an int, "
                f"got {value!r} — work metrics are gated exactly"
            )
        clean[str(key)] = value
    if not clean:
        raise AnalysisError(f"bench {name!r} produced no work metrics")
    return clean


@dataclass(frozen=True)
class BenchResult:
    """One bench's measured point: exact work + noisy timing."""

    name: str
    work: dict[str, int]
    #: ``{"warmup", "repeats", "seconds", "best", "median", "iqr"}`` —
    #: seconds as measured, summaries derived (older files also carry an
    #: unread ``"ci90": [lo, hi]``)
    timing: dict[str, Any]
    #: throughputs derived from work/best (events_per_sec, ...)
    derived: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "work", _check_work(self.name, self.work))

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "work": dict(sorted(self.work.items())),
            "timing": self.timing,
            "derived": dict(sorted(self.derived.items())),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "BenchResult":
        """Read one result; the ``"kind"`` older files carry is unread."""
        try:
            return cls(
                name=str(data["name"]),
                work=dict(data["work"]),
                timing=dict(data["timing"]),
                derived={str(k): float(v) for k, v in data.get("derived", {}).items()},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise AnalysisError(f"invalid bench result: {exc}") from None


@dataclass(frozen=True)
class Baseline:
    """One trajectory point: a suite's results plus provenance."""

    suite: str
    results: tuple[BenchResult, ...]
    machine: dict[str, Any]
    git_rev: str = "unknown"
    notes: str = ""
    schema: int = BASELINE_SCHEMA

    def __post_init__(self) -> None:
        names = [r.name for r in self.results]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise AnalysisError(f"duplicate bench result(s) {dupes!r}")
        if not isinstance(self.results, tuple):
            object.__setattr__(self, "results", tuple(self.results))

    def result(self, name: str) -> BenchResult | None:
        for r in self.results:
            if r.name == name:
                return r
        return None

    def bench_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.results)

    def work_section(self) -> dict[str, dict[str, int]]:
        """``{bench: {metric: value}}`` — the exactly-gated portion."""
        return {r.name: dict(sorted(r.work.items())) for r in self.results}

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "suite": self.suite,
            "machine": self.machine,
            "git_rev": self.git_rev,
            "notes": self.notes,
            "results": [r.to_json_dict() for r in self.results],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "Baseline":
        if not isinstance(data, Mapping):
            raise AnalysisError(f"baseline document must be an object, got {type(data)}")
        schema = data.get("schema")
        if schema != BASELINE_SCHEMA:
            raise AnalysisError(
                f"baseline schema {schema!r} unsupported; expected {BASELINE_SCHEMA}"
            )
        try:
            results = tuple(
                BenchResult.from_json_dict(r) for r in data["results"]
            )
            return cls(
                suite=str(data["suite"]),
                results=results,
                machine=dict(data["machine"]),
                git_rev=str(data.get("git_rev", "unknown")),
                notes=str(data.get("notes", "")),
                schema=BASELINE_SCHEMA,
            )
        except (KeyError, TypeError) as exc:
            raise AnalysisError(f"invalid baseline document: {exc}") from None


def work_bytes(baseline: Baseline) -> bytes:
    """Canonical byte encoding of the work section.

    This is what "byte-identical work metrics" means across runs and
    machines — timing and provenance excluded.
    """
    return json.dumps(
        baseline.work_section(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def save_baseline(baseline: Baseline, path: str | Path) -> Path:
    """Write *baseline* as pretty, key-sorted JSON (stable diffs)."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(baseline.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_baseline(path: str | Path) -> Baseline:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise AnalysisError(f"no such baseline {path}: {exc}") from None
    except ValueError as exc:
        raise AnalysisError(f"unreadable baseline {path}: {exc}") from None
    return Baseline.from_json_dict(data)


def baseline_paths(root: str | Path = ".") -> tuple[Path, ...]:
    """Sorted ``BENCH_*.json`` trajectory files under *root*."""
    return tuple(sorted(Path(root).glob(BASELINE_GLOB)))


def latest_baseline_path(root: str | Path = ".") -> Path | None:
    """The newest trajectory point (by name order), if any."""
    paths = baseline_paths(root)
    return paths[-1] if paths else None
