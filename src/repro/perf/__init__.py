"""Performance benchmarking, baseline trajectory & regression gate.

The ROADMAP's north star is a system that runs "as fast as the hardware
allows" — this package makes that claim *measurable, recorded and
defended*:

* a :class:`~repro.perf.spec.BenchSpec` registry of named workloads
  (micro-kernels and executor-lowered sweeps) grouped into
  ``smoke``/``core``/``full`` suites;
* warm-up + min-of-k monotonic timing with median/IQR and
  seeded-bootstrap confidence intervals;
* ``BENCH_<nnnn>.json`` trajectory files at the repo root — one point
  per PR that touches performance, with machine fingerprint and git
  revision;
* a regression gate: **work metrics** (events, messages, rounds, bits)
  are deterministic and gated exactly on any machine; **time metrics**
  are gated with a noise tolerance, and only against a matching machine
  fingerprint;
* a mutation self-test: the ``slow_event_loop`` switch
  (:mod:`repro._mutation`) slows every message delivery and must trip
  the gate — the perf analogue of the exploration harness's
  ``skip_cutter_gate``.

Entry points: ``python -m repro bench`` (CLI),
:func:`~repro.perf.runner.run_suite` /
:func:`~repro.perf.compare.compare_baselines` (library).
"""

from . import library as _library  # registers the built-in benches
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
from .compare import TIME_TOLERANCE, Comparison, Verdict, compare_baselines
from .runner import aggregate_work, run_suite
from .spec import (
    SUITE_DESCRIPTIONS,
    SUITES,
    BenchSpec,
    bench_names,
    get_bench,
    register_bench,
    suite_benches,
    suite_names,
)
from .stats import bootstrap_ci, iqr, median, quantile
from .timing import TimingSample, time_callable

BUILTIN_BENCHES = _library.BUILTIN_BENCHES

__all__ = [
    "SUITES",
    "SUITE_DESCRIPTIONS",
    "BenchSpec",
    "register_bench",
    "bench_names",
    "get_bench",
    "suite_benches",
    "suite_names",
    "BUILTIN_BENCHES",
    "TimingSample",
    "time_callable",
    "median",
    "iqr",
    "quantile",
    "bootstrap_ci",
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
    "TIME_TOLERANCE",
    "Verdict",
    "Comparison",
    "compare_baselines",
    "run_suite",
    "aggregate_work",
]
