"""Sweep harness: run any registered algorithm across
(family × size × seed × config × algorithm) grids and collect
:class:`~repro.analysis.records.RunRecord` rows.

This is the engine behind every benchmark table: a
:class:`SweepSpec` fully determines its records (seeded, deterministic).
The spec enumerates a flat list of :class:`~repro.analysis.executor.RunSpec`
cells which any :class:`~repro.analysis.executor.Executor` backend can
consume — serially, across a process pool (``jobs``), and/or through a
disk result cache (``cache``) — always producing the same record list.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..algorithms import DEFAULT_ALGORITHM
from ..obs import current as obs
from ..sim.churn import NO_CHURN
from ..sim.faults import NO_FAULT
from ..sim.provenance import CausalTally
from ..sim.scheduler import NO_SCHEDULER
from .axes import check_spec
from .cache import ResultCache
from .executor import Executor, RunSpec, make_executor
from .records import RunRecord

__all__ = ["SweepSpec", "run_single", "run_sweep"]


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep definition.

    Attributes mirror the axes of the paper's claims: topology family and
    size (n, m), initial-tree construction (the paper's startup phase),
    protocol mode, delay model, seeds for everything stochastic — plus
    the ``algorithms`` axis over the :mod:`repro.algorithms` registry
    for head-to-head comparisons.

    Axes are validated eagerly against :data:`~repro.analysis.axes.AXES`
    — a typo'd family or delay name fails at construction with the valid
    choices, not minutes into a sweep. Lists are accepted and stored as
    tuples.
    """

    families: tuple[str, ...] = ("gnp_sparse",)
    sizes: tuple[int, ...] = (16, 32)
    seeds: tuple[int, ...] = (0, 1, 2)
    initial_methods: tuple[str, ...] = ("echo",)
    modes: tuple[str, ...] = ("concurrent",)
    delays: tuple[str, ...] = ("unit",)
    algorithms: tuple[str, ...] = (DEFAULT_ALGORITHM,)
    faults: tuple[str, ...] = (NO_FAULT,)
    schedulers: tuple[str, ...] = (NO_SCHEDULER,)
    churns: tuple[str, ...] = (NO_CHURN,)
    max_rounds: int | None = None

    def __post_init__(self) -> None:
        check_spec(self)

    def cells(self) -> tuple[RunSpec, ...]:
        """Flatten the cartesian grid into executor cells (stable order)."""
        return tuple(
            RunSpec(
                family=family,
                n=n,
                seed=seed,
                initial_method=method,
                mode=mode,
                delay=delay,
                max_rounds=self.max_rounds,
                algorithm=algorithm,
                fault=fault,
                scheduler=scheduler,
                churn=churn,
            )
            for family in self.families
            for n in self.sizes
            for method in self.initial_methods
            for mode in self.modes
            for delay in self.delays
            for scheduler in self.schedulers
            for churn in self.churns
            for algorithm in self.algorithms
            for fault in self.faults
            for seed in self.seeds
        )


def run_single(
    family: str,
    n: int,
    seed: int,
    *,
    causal: CausalTally | None = None,
    **fields: Any,
) -> RunRecord:
    """Run one configuration and flatten it into a record.

    *fields* are the remaining :class:`~repro.analysis.executor.RunSpec`
    fields (``initial_method``, ``mode``, ``delay``, ``max_rounds``,
    ``algorithm``, ``fault``, ``scheduler``, ``churn``).

    Passing a :class:`~repro.sim.provenance.CausalCapture` as *causal*
    records per-delivery provenance into it (and its
    :meth:`~repro.sim.provenance.CausalTally.summary` into the
    record's ``causal`` field) — the substrate behind ``--causal-out``
    and ``repro inspect``. ``None`` (the default) leaves every fast
    drive path byte-for-byte untouched.

    With a named *fault* plan injected, a run that stalls loudly (the
    certified outcome under the paper's reliability assumption — see
    :mod:`repro.sim.faults`) is flattened into an ``outcome="stalled"``
    record with zeroed metrics instead of raising, so fault scenarios
    can tabulate stall rates next to completed runs. Without a fault the
    exception propagates: stalling under the reliable model is a bug.

    A named *churn* plan (:mod:`repro.sim.churn`) follows the same
    dichotomy, but narrower: only genuine stalls
    (:class:`~repro.errors.StallError` /
    :class:`~repro.errors.TerminationError` — stranded held events) are
    flattened to ``outcome="stalled"``. Lossless in-order churn is
    schedule-equivalent to admissible asynchrony, so any *other*
    protocol error under churn is corruption and propagates as a real
    bug.

    A named *scheduler* policy hands delivery ordering to an adversary
    (the *delay* axis is then inert). Protocol failures under an
    admissible adversarial schedule are real bugs, so they propagate
    exactly like fault-free failures — the exploration harness wraps this
    with an error-capturing probe instead
    (:func:`repro.exploration.probe_cell`).
    """
    from .batch import CellTemplate

    return CellTemplate(RunSpec(family, n, seed, **fields)).run(seed, causal)


def run_sweep(
    spec: SweepSpec,
    *,
    executor: Executor | None = None,
    jobs: int = 1,
    cache: ResultCache | str | Path | None = None,
) -> list[RunRecord]:
    """Run the full cartesian sweep (deterministic given the spec).

    Parameters
    ----------
    executor:
        Explicit backend; overrides *jobs* / *cache*.
    jobs:
        Worker processes (1 = in-process serial execution). Any value
        produces records in identical order — parallelism never reorders.
    cache:
        Result-cache directory (or a :class:`ResultCache`); completed
        cells are loaded from disk instead of re-run.
    """
    if executor is None:
        executor = make_executor(jobs=jobs, cache=cache)
    from .batch import emit_group_spans

    cells = spec.cells()
    t = obs()
    with t.span("sweep", cells=len(cells)):
        with t.span("sweep.execute"):
            records = executor.run(cells)
        emit_group_spans(t, cells, records)
    return records
