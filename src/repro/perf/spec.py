"""Benchmark specs and the suites that group them.

A :class:`BenchSpec` names one performance workload and how to measure
it. Two kinds exist:

* **sweep benches** lower to the existing experiment engine — a
  :class:`~repro.analysis.harness.SweepSpec` (or an arbitrary cell
  factory, e.g. a tiny campaign flattened the scenario-runner way) whose
  :class:`~repro.analysis.executor.RunSpec` cells fan out through the
  Serial/Parallel/Caching executors. Work metrics are exact aggregates
  over the resulting records.
* **micro benches** are in-process kernels (event-queue churn, one
  protocol wave, graph generation): a zero-argument *factory* does the
  setup and returns the closure that is timed; each call of the closure
  returns its own work-metric dict, which must be identical on every
  call (the runner enforces this).

Benches are grouped into **suites**: ``smoke`` (seconds — the CI gate),
``core`` (the paper's t1–t9 experiment workloads plus the engine
benches), and ``full`` (implicitly every bench). The named benches are
one plain dict, :data:`repro.perf.library.BENCHES`, like every other
name table (families, delays, algorithms, faults, schedulers,
scenarios), and :data:`SUITES` is the suites' table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..analysis.executor import RunSpec
from ..analysis.harness import SweepSpec
from ..errors import AnalysisError

__all__ = ["SUITES", "BenchSpec", "MicroFn"]

#: Suite name -> one-line blurb, in gate-cost order. ``full`` is
#: implicit — every bench belongs to it; specs declare the *explicit*
#: tiers.
SUITES: dict[str, str] = {
    "smoke": "seconds-scale regression gate (runs on every CI push)",
    "core": "the paper's t1-t9 experiment workloads + engine benches",
    "full": "every registered bench",
}

#: One micro-bench execution: runs the kernel once and returns its work
#: metrics (integer-valued, identical on every call).
MicroFn = Callable[[], dict[str, int]]

#: Setup hook for a micro bench: build graphs/queues once, return the
#: closure that gets timed.
MicroFactory = Callable[[], MicroFn]

#: Cell factory for sweep benches that are not plain cartesian sweeps
#: (e.g. a campaign flattened into cells).
CellsFactory = Callable[[], tuple[RunSpec, ...]]


@dataclass(frozen=True)
class BenchSpec:
    """One named benchmark workload.

    Exactly one of *sweep*, *cells_fn* or *micro* must be set. *repeats*
    and *warmup* parametrize the min-of-k timing pass
    (:mod:`repro.perf.timing`).
    """

    name: str
    description: str
    #: explicit suite memberships — a subset of ``("smoke", "core")``;
    #: ``full`` membership is implicit for every bench
    suites: tuple[str, ...] = ()
    sweep: SweepSpec | None = None
    cells_fn: CellsFactory | None = field(default=None, repr=False)
    micro: MicroFactory | None = field(default=None, repr=False)
    repeats: int = 3
    warmup: int = 1

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise AnalysisError(f"bad bench name {self.name!r}")
        sources = [s for s in (self.sweep, self.cells_fn, self.micro) if s is not None]
        if len(sources) != 1:
            raise AnalysisError(
                f"bench {self.name!r} must set exactly one of "
                f"sweep/cells_fn/micro, got {len(sources)}"
            )
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

    @property
    def kind(self) -> str:
        """``"micro"`` or ``"sweep"`` (cell factories are sweeps too)."""
        return "micro" if self.micro is not None else "sweep"

    def cells(self) -> tuple[RunSpec, ...]:
        """Executor cells of a sweep bench (empty for micro benches)."""
        if self.sweep is not None:
            return self.sweep.cells()
        if self.cells_fn is not None:
            return tuple(self.cells_fn())
        return ()

    def in_suite(self, suite: str) -> bool:
        return suite == "full" or suite in self.suites

