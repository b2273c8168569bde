"""Pluggable execution backends for sweep cells.

A sweep is a flat list of :class:`RunSpec` cells (one fully-determined
single-run configuration each). An :class:`Executor` turns cells into
:class:`~repro.analysis.records.RunRecord` rows. Three backends:

* :class:`SerialExecutor` — in-process loop, the reference semantics;
* :class:`ParallelExecutor` — a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out that ships whole **seed-varying groups** (not single cells) to
  workers, where each group runs through one
  :class:`~repro.analysis.batch.CellTemplate` — so ``--jobs N`` pays one
  IPC round-trip per group instead of per cell. Group results come back
  in submission order, so a parallel sweep is bit-identical to a serial
  one;
* :class:`CachingExecutor` — wraps any executor with a disk-backed
  :class:`~repro.analysis.cache.ResultCache`: one batched ``get_many``
  up front, only the missing cells reach the inner executor (still in
  their groups), then one batched ``put_many``.

Cells and records cross process boundaries in a compact group encoding:
one spec template plus the seed list per group on the way out, one field
header plus value rows on the way back — a worker never pickles anything
richer than built-in types.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from ..algorithms.registry import DEFAULT_ALGORITHM
from ..errors import AnalysisError
from ..obs import capture
from ..obs import current as obs
from .cache import ResultCache
from .records import RunRecord

__all__ = [
    "RunSpec",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "CachingExecutor",
    "make_executor",
]


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined sweep cell.

    Together with the library version this is the complete input of a
    single run: the same ``RunSpec`` always reproduces the same
    :class:`RunRecord` (simulator determinism), which is what makes both
    result caching and parallel execution safe.
    """

    family: str
    n: int
    seed: int
    initial_method: str = "echo"
    mode: str = "concurrent"
    delay: str = "unit"
    max_rounds: int | None = None
    algorithm: str = DEFAULT_ALGORITHM
    #: named fault plan (see :func:`repro.sim.faults.fault_plan_from_name`)
    fault: str = "none"
    #: named scheduler policy (see
    #: :func:`repro.sim.scheduler.scheduler_from_name`); ``"none"`` is the
    #: normal time-based schedule. Replay schedules travel here as
    #: canonical ``replay:<fallback>:<prefix>`` spec strings, so the
    #: choice-prefix is part of the spec — and of the cache key.
    scheduler: str = "none"
    #: named churn plan (see :func:`repro.sim.churn.churn_plan_from_name`)
    churn: str = "none"

    def to_json_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "RunSpec":
        return cls(**data)


#: A cell runner: the unit of work an executor dispatches. Must be a
#: module-level callable so :class:`ParallelExecutor` can pickle it by
#: reference into worker processes. A runner opts into seed-varying
#: group runs by exposing a ``run_batch`` attribute (see
#: :func:`repro.analysis.batch.maybe_run_batched`).
CellRunner = Callable[["RunSpec"], RunRecord]


def check_jobs(jobs: int) -> int:
    """A worker-process count: at least one."""
    if jobs < 1:
        raise AnalysisError(f"invalid choice: {jobs!r} (jobs must be >= 1)")
    return jobs


def execute_cell(spec: RunSpec) -> RunRecord:
    """Run one cell (the default cell runner)."""
    from .batch import CellTemplate

    return CellTemplate(spec).run(spec.seed)


# -- compact group wire encoding -------------------------------------------

_RECORD_FIELDS: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(RunRecord)
)


def _encode_group(cells: Sequence[RunSpec]) -> dict[str, Any]:
    """One seed-varying group as ``{template, seeds}`` — the template is
    serialized once however many replicas the group holds."""
    template = cells[0].to_json_dict()
    del template["seed"]
    return {"spec": template, "seeds": [c.seed for c in cells]}


def _decode_group(payload: dict[str, Any]) -> list[RunSpec]:
    template = payload["spec"]
    return [
        RunSpec.from_json_dict({**template, "seed": seed})
        for seed in payload["seeds"]
    ]


def _encode_records(records: Sequence[RunRecord]) -> list[list[Any]]:
    """Field-ordered value rows (the header is the dataclass itself)."""
    return [[getattr(r, name) for name in _RECORD_FIELDS] for r in records]


def _decode_records(rows: Sequence[Sequence[Any]]) -> list[RunRecord]:
    return [RunRecord(**dict(zip(_RECORD_FIELDS, row))) for row in rows]


def _run_group_json(runner: CellRunner, payload: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: one encoded group in, encoded record rows out.

    Multi-cell groups route through the runner's ``run_batch`` hook
    (one template per group for both built-in runners) exactly as
    :class:`SerialExecutor` routes them, so worker-side records are
    byte-identical to serial ones by construction. The group runs inside
    a worker-local telemetry capture whose counter/event dump rides back
    alongside the rows; the parent merges the dumps in submission order,
    which is what makes the exec-section observations of a ``--jobs N``
    run identical to a serial one.
    """
    cells = _decode_group(payload)
    with capture() as t:
        run_batch = getattr(runner, "run_batch", None)
        if run_batch is not None and len(cells) > 1:
            records = run_batch(cells)
        else:
            t.count("exec.cells.single", len(cells))
            records = [runner(spec) for spec in cells]
    return {"rows": _encode_records(records), "obs": t.dump()}


@runtime_checkable
class Executor(Protocol):
    """Anything that maps sweep cells to records, preserving cell order."""

    def run(self, cells: Sequence[RunSpec]) -> list[RunRecord]: ...


class SerialExecutor:
    """Reference backend: run every cell in-process, in order.

    *runner* swaps the unit of work (default: :func:`execute_cell`); the
    exploration harness substitutes its error-capturing probe.

    When the runner exposes a ``run_batch`` attribute (both built-in
    runners do), seed-varying-only cell groups are routed through it
    (:mod:`repro.analysis.batch`) — same records, same order, one
    template resolution per group. ``batch=False`` forces the plain
    per-cell loop, the reference path the batched one is tested against.
    """

    def __init__(self, runner: CellRunner = execute_cell, batch: bool = True) -> None:
        self.runner = runner
        self.batch = batch

    def run(self, cells: Sequence[RunSpec]) -> list[RunRecord]:
        runner = self.runner
        if self.batch and len(cells) > 1:
            # importing the batch module also registers execute_cell's
            # run_batch hook; maybe_run_batched falls back to the plain
            # loop for runners that never opt in
            from .batch import maybe_run_batched

            return maybe_run_batched(runner, cells)
        if cells:
            obs().count("exec.cells.single", len(cells))
        return [runner(spec) for spec in cells]


class ParallelExecutor:
    """Process-pool backend shipping seed-varying groups to workers.

    The cell list is partitioned with
    :func:`repro.analysis.batch.group_cells`; each group crosses the
    process boundary once (compact template+seeds payload) and runs
    through the worker-side group runner. ``pool.map`` yields
    group results in *submission* order, so the reassembled record list
    matches the cell order bit-for-bit no matter which worker finishes
    first — determinism is positional, not temporal.

    By default a fresh pool is built per :meth:`run` call. Multi-phase
    drivers (exploration probe rounds, perf suites) can pass
    ``persistent=True`` to reuse one lazily-built pool across calls —
    pair it with :meth:`close` or use the executor as a context manager.

    *runner* must be a module-level callable (pickled by reference into
    the workers).
    """

    def __init__(
        self,
        jobs: int,
        runner: CellRunner = execute_cell,
        *,
        persistent: bool = False,
    ) -> None:
        self.jobs = check_jobs(jobs)
        self.runner = runner
        self.persistent = persistent
        self._pool: ProcessPoolExecutor | None = None

    def run(self, cells: Sequence[RunSpec]) -> list[RunRecord]:
        if not cells:
            return []
        if self.jobs == 1 or len(cells) == 1:
            return SerialExecutor(self.runner).run(cells)
        from .batch import group_cells

        groups = group_cells(cells)
        payloads = [_encode_group([cells[i] for i in idxs]) for idxs in groups]
        chunksize = max(1, len(groups) // (self.jobs * 4))
        pool, transient = self._acquire_pool()
        try:
            results = list(
                pool.map(
                    partial(_run_group_json, self.runner),
                    payloads,
                    chunksize=chunksize,
                )
            )
        finally:
            if transient:
                pool.shutdown()
                obs().event("pool.close", workers=self.jobs, transient=True)
        t = obs()
        records: list[RunRecord | None] = [None] * len(cells)
        for idxs, result in zip(groups, results):
            # submission order, not completion order: worker telemetry
            # merges back exactly as a serial loop would have emitted it
            t.merge(result["obs"])
            for i, record in zip(idxs, _decode_records(result["rows"])):
                records[i] = record
        return records  # type: ignore[return-value]

    def _acquire_pool(self) -> tuple[ProcessPoolExecutor, bool]:
        if not self.persistent:
            obs().event("pool.start", workers=self.jobs, persistent=False)
            return ProcessPoolExecutor(max_workers=self.jobs), True
        if self._pool is None:
            obs().event("pool.start", workers=self.jobs, persistent=True)
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        else:
            obs().event("pool.reuse", workers=self.jobs)
        return self._pool, False

    def close(self) -> None:
        """Shut the persistent pool down (no-op when none was built)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            obs().event("pool.close", workers=self.jobs, transient=False)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class CachingExecutor:
    """Serve cells from a :class:`ResultCache`; run only the misses.

    One batched ``get_many`` answers every warm cell up front; the miss
    set is dispatched to *inner* as one batch (so a parallel inner
    executor still fans whole groups out — the missing seeds of a
    half-warm group stay a group), then stored with one ``put_many``
    and merged back into cell order.
    """

    def __init__(self, inner: Executor, cache: ResultCache | str | Path) -> None:
        self.inner = inner
        self.cache = cache if isinstance(cache, ResultCache) else ResultCache(cache)

    def run(self, cells: Sequence[RunSpec]) -> list[RunRecord]:
        results = self.cache.get_many(cells)
        misses = [i for i, record in enumerate(results) if record is None]
        if misses:
            fresh = self.inner.run([cells[i] for i in misses])
            self.cache.put_many([(cells[i], r) for i, r in zip(misses, fresh)])
            for i, record in zip(misses, fresh):
                results[i] = record
        return results  # type: ignore[return-value]


def make_executor(
    *,
    jobs: int = 1,
    cache: ResultCache | str | Path | None = None,
    runner: CellRunner = execute_cell,
    persistent: bool = False,
) -> Executor:
    """Build the executor implied by the ``--jobs`` / ``--cache`` knobs.

    A non-default *runner* must pair with a salted cache (see
    :class:`~repro.analysis.cache.ResultCache`) so its records never
    alias the plain-run entries for the same spec. *persistent* keeps
    one worker pool alive across ``run()`` calls (parallel executors
    only — remember to ``close()`` it).
    """
    executor: Executor = (
        ParallelExecutor(jobs, runner, persistent=persistent)
        if check_jobs(jobs) > 1
        else SerialExecutor(runner)
    )
    if cache is not None:
        executor = CachingExecutor(executor, cache)
    return executor
