"""Performance benchmarking, baseline trajectory & regression gate.

The ROADMAP's north star is a system that runs "as fast as the hardware
allows" — this package makes that claim *measurable, recorded and
defended*:

* :data:`~repro.perf.library.BENCHES`, a table of named
  :class:`~repro.perf.spec.BenchSpec` workloads grouped into
  ``smoke``/``core``/``full`` suites; every bench is a kernel factory
  whose timed closure returns its work metrics (a sweep's cells become
  one through :func:`~repro.perf.spec.cells_kernel`);
* warm-up + min-of-k monotonic timing with median/IQR, one pass per
  bench;
* ``BENCH_<nnnn>.json`` trajectory files at the repo root — one point
  per PR that touches performance, with machine fingerprint and git
  revision as history;
* two verdicts: **work metrics** (events, messages, rounds, bits) are
  deterministic and gated exactly against a ``BENCH_*.json`` file on
  any machine; **speed** is judged only against a git revision, over
  :data:`~repro.perf.runner.PAIRS` alternating subprocess pairs, by
  :func:`~repro.perf.stats.paired_verdict`;
* a mutation self-test: the ``slow_event_loop`` switch
  (:mod:`repro._mutation`) slows every message delivery, and paired
  against the healthy revision it must be judged slower — the perf
  analogue of the exploration harness's ``skip_cutter_gate``.

Entry points: ``python -m repro bench`` (CLI),
:func:`~repro.perf.runner.run_suite` /
:func:`~repro.perf.compare.compare_baselines` /
:func:`~repro.perf.runner.run_pairs` /
:func:`~repro.perf.compare.compare_pairs` (library).
"""

from .baseline import (
    BASELINE_SCHEMA,
    Baseline,
    BenchResult,
    baseline_paths,
    git_revision,
    latest_baseline_path,
    load_baseline,
    machine_fingerprint,
    save_baseline,
    work_bytes,
)
from .compare import (
    Comparison,
    PairedComparison,
    Verdict,
    compare_baselines,
    compare_pairs,
)
from .library import BENCHES, suite_benches
from .runner import PAIRS, resolve_revision, run_pairs, run_suite
from .spec import SUITES, BenchSpec, aggregate_work, cells_kernel
from .stats import PairedVerdict, iqr, median, paired_verdict, quantile
from .timing import TimingSample, time_callable

__all__ = [
    "SUITES",
    "BenchSpec",
    "aggregate_work",
    "cells_kernel",
    "BENCHES",
    "suite_benches",
    "TimingSample",
    "time_callable",
    "median",
    "iqr",
    "quantile",
    "PairedVerdict",
    "paired_verdict",
    "BASELINE_SCHEMA",
    "Baseline",
    "BenchResult",
    "machine_fingerprint",
    "git_revision",
    "save_baseline",
    "load_baseline",
    "work_bytes",
    "baseline_paths",
    "latest_baseline_path",
    "Verdict",
    "Comparison",
    "compare_baselines",
    "PairedComparison",
    "compare_pairs",
    "run_suite",
    "PAIRS",
    "resolve_revision",
    "run_pairs",
]
