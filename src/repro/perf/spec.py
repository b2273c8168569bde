"""Benchmark specs and the suites that group them.

A :class:`BenchSpec` names one performance workload by its *kernel*
factory: a zero-argument callable that does the set-up (build graphs,
queues, the cells of a sweep) and returns the closure that is timed.
Each call of the closure returns its own work-metric dict, which must be
identical on every call (the runner enforces this). A workload made of
executor cells — a :class:`~repro.analysis.harness.SweepSpec`, or a
campaign flattened the scenario-runner way — becomes a kernel through
:func:`cells_kernel`: its closure runs every cell through
:func:`~repro.analysis.executor.execute_cell` and returns the exact
aggregates over the records (:func:`aggregate_work`).

Benches are grouped into **suites**: ``smoke`` (seconds — the CI gate),
``core`` (the paper's t1–t9 experiment workloads plus the engine
benches), and ``full`` (implicitly every bench). The named benches are
one plain dict, :data:`repro.perf.library.BENCHES`, like every other
name table (families, delays, algorithms, faults, schedulers,
scenarios), and :data:`SUITES` is the suites' table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..analysis.executor import RunSpec, execute_cell
from ..analysis.records import RunRecord
from ..errors import AnalysisError

__all__ = [
    "SUITES",
    "BenchSpec",
    "Kernel",
    "KernelFactory",
    "aggregate_work",
    "cells_kernel",
]

#: Suite name -> one-line blurb, in gate-cost order. ``full`` is
#: implicit — every bench belongs to it; specs declare the *explicit*
#: tiers.
SUITES: dict[str, str] = {
    "smoke": "seconds-scale regression gate (runs on every CI push)",
    "core": "the paper's t1-t9 experiment workloads + engine benches",
    "full": "every registered bench",
}

#: One bench execution: runs the workload once and returns its work
#: metrics (integer-valued, identical on every call).
Kernel = Callable[[], dict[str, int]]

#: A bench's set-up: build graphs/queues/cells once, return the closure
#: that gets timed.
KernelFactory = Callable[[], Kernel]


def aggregate_work(records: Sequence[RunRecord]) -> dict[str, int]:
    """Exact integer aggregates of a record batch (the work section)."""
    return {
        "cells": len(records),
        "events": sum(r.events for r in records),
        "messages": sum(r.messages for r in records),
        "rounds": sum(r.rounds for r in records),
        "bits": sum(r.bits for r in records),
        "causal_time": sum(r.causal_time for r in records),
        "k_final_total": sum(r.k_final for r in records),
        "stalled": sum(1 for r in records if not r.ok),
    }


def cells_kernel(make_cells: Callable[[], Sequence[RunSpec]]) -> KernelFactory:
    """The kernel factory of a cell workload: *make_cells* runs at
    set-up, and the timed closure executes every cell serially."""

    def factory() -> Kernel:
        cells = tuple(make_cells())
        return lambda: aggregate_work([execute_cell(c) for c in cells])

    return factory


@dataclass(frozen=True)
class BenchSpec:
    """One named benchmark workload.

    *repeats* and *warmup* parametrize the min-of-k timing
    (:mod:`repro.perf.timing`).
    """

    name: str
    description: str
    kernel: KernelFactory = field(repr=False)
    #: explicit suite memberships — a subset of ``("smoke", "core")``;
    #: ``full`` membership is implicit for every bench
    suites: tuple[str, ...] = ()
    repeats: int = 3
    warmup: int = 1

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise AnalysisError(f"bad bench name {self.name!r}")
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise AnalysisError(
                f"bench {self.name!r} names unknown suite(s) {unknown!r}; "
                f"valid: {list(SUITES)}"
            )
        if "full" in self.suites:
            raise AnalysisError(
                f"bench {self.name!r} lists 'full' explicitly; membership "
                "in the full suite is implicit"
            )
        if self.repeats < 1:
            raise AnalysisError(f"repeats must be >= 1, got {self.repeats}")
        if self.warmup < 0:
            raise AnalysisError(f"warmup must be >= 0, got {self.warmup}")

    def in_suite(self, suite: str) -> bool:
        return suite == "full" or suite in self.suites
