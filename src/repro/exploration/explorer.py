"""Fan exploration cells out through the executor layer and judge them.

One exploration batch = every cell's probe specs flattened into a single
executor batch (so a parallel backend keeps all workers busy across the
whole grid and a caching backend shares completed probes between
explorations), then records are split back per cell positionally and
judged by the differential oracle — the same flatten/split discipline the
campaign runner uses, with the error-capturing probe as the unit of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from ..analysis.batch import emit_group_spans
from ..analysis.cache import ResultCache
from ..analysis.executor import Executor, make_executor
from ..analysis.records import RunRecord
from ..obs import current as obs
from .cells import ExplorationCell
from .oracle import EXACT_LIMIT, Verdict, check_cell
from .probe import PROBE_CACHE_SALT, probe_cell

__all__ = ["ExplorationResult", "explore", "explore_one", "probe_executor"]


@dataclass(frozen=True)
class ExplorationResult:
    """One judged cell: the probe records and the oracle's verdict."""

    cell: ExplorationCell
    verdict: Verdict
    records: tuple[RunRecord, ...]

    @property
    def ok(self) -> bool:
        return self.verdict.ok

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "cell": self.cell.to_json_dict(),
            "verdict": self.verdict.to_json_dict(),
            "records": [r.to_json_dict() for r in self.records],
        }


def probe_executor(
    jobs: int,
    cache: ResultCache | str | Path | None,
    *,
    persistent: bool = False,
) -> Executor:
    """The probe backend for *jobs* / *cache*. A path-like cache is
    opened salted, and an unsalted store is re-opened salted, so probe
    records never alias plain sweep records of the same spec (an
    explicitly salted store is left as the caller partitioned it).
    *persistent* keeps one worker pool across batches."""
    if isinstance(cache, ResultCache):
        if not cache.salt:
            cache = ResultCache(cache.root, salt=PROBE_CACHE_SALT)
    elif cache is not None:
        cache = ResultCache(cache, salt=PROBE_CACHE_SALT)
    return make_executor(jobs=jobs, cache=cache, runner=probe_cell, persistent=persistent)


def explore(
    cells: Sequence[ExplorationCell],
    *,
    executor: Executor | None = None,
    jobs: int = 1,
    cache: ResultCache | str | Path | None = None,
    exact_limit: int = EXACT_LIMIT,
) -> list[ExplorationResult]:
    """Probe and judge every cell (deterministic in the cell list).

    Parameters mirror :func:`~repro.analysis.harness.run_sweep`: an
    explicit *executor* overrides *jobs* / *cache*; a path-like *cache*
    is opened salted so probe records stay separate from plain sweep
    records. Records come back in cell order for any backend, so the
    verdict list is bit-identical under serial and parallel execution.
    """
    cells = list(cells)
    backend = executor if executor is not None else probe_executor(jobs, cache)
    specs = [spec for cell in cells for spec in cell.run_specs()]
    t = obs()
    with t.span("explore", cells=len(cells), probes=len(specs)):
        with t.span("explore.execute"):
            records = backend.run(specs)
        emit_group_spans(t, specs, records, name="explore.group")
        results: list[ExplorationResult] = []
        offset = 0
        with t.span("explore.judge", cells=len(cells)) as judge:
            for cell in cells:
                width = len(cell.algorithms)
                chunk = tuple(records[offset : offset + width])
                offset += width
                results.append(
                    ExplorationResult(
                        cell=cell,
                        verdict=check_cell(cell, chunk, exact_limit=exact_limit),
                        records=chunk,
                    )
                )
            judge.attrs["failures"] = sum(1 for r in results if not r.ok)
    return results


def explore_one(
    cell: ExplorationCell, *, exact_limit: int = EXACT_LIMIT
) -> ExplorationResult:
    """Probe and judge a single cell in-process (the shrinker's and the
    corpus replayer's primitive)."""
    return explore([cell], exact_limit=exact_limit)[0]
