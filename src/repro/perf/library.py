"""Built-in benchmark registry entries.

Importing this module registers every built-in bench (the package
``__init__`` does it, mirroring how :mod:`repro.scenarios.library`
registers scenarios). Suites:

* ``smoke`` — seconds-scale, runs on every CI push as the regression
  gate: the queue micro-kernels, the loop-dominated echo wave, the
  full-protocol reference workload, a two-algorithm sweep, and the
  tiny campaign (faults + adversarial schedules included, so the gate's
  work section covers every axis registry);
* ``core`` — the paper's tables T1–T9, one bench per
  :data:`~repro.analysis.experiments.EXPERIMENTS` entry with its own
  runs (the same runs ``repro experiment`` and ``pytest benchmarks/``
  render; T3 renders T2's sweep, so ``t2_messages`` times both), plus
  the engine benches;
* ``full`` — implicitly everything registered.
"""

from __future__ import annotations

from ..analysis.experiments import EXPERIMENTS
from . import workloads as w
from .spec import BenchSpec, register_bench

__all__ = ["BUILTIN_BENCHES"]


def _t1_work(payload):
    work = w.mdst_result_work([res for _, _, res, _ in payload["rows"]])
    work["claim_holds"] = sum(payload["holds"])
    return work


def _t4_work(payload):
    rows = payload["rows"]
    return w.mdst_result_work(
        [conc for *_, conc, _ in rows] + [single for *_, single in rows]
    )


def _t6_work(payload):
    rows = payload["rows"]
    work = w.mdst_result_work([res for _, _, res in rows])
    work["startup_messages"] = sum(
        s.report.total_messages for _, s, _ in rows if s.report is not None
    )
    return work


def _t8_work(payload):
    rows = payload["rows"]
    work = w.mdst_result_work([dist for _, _, dist, _, _ in rows])
    work["fr_degree_total"] = sum(fr.max_degree() for *_, fr in rows)
    work["local_search_degree_total"] = sum(
        simple.max_degree() for _, _, _, simple, _ in rows
    )
    return work


def _results_work(payload):
    return w.mdst_result_work([row[-1] for row in payload["rows"]])


#: Work metrics of each in-process paper table, read off its payload
#: (the sweep-backed tables are lowered to cells instead).
_TABLE_WORK = {
    "t1": _t1_work,
    "t4": _t4_work,
    "t5": _results_work,
    "t6": _t6_work,
    "t8": _t8_work,
    "t9": _results_work,
}


def _paper_bench(name: str) -> BenchSpec:
    """Table *name*'s core bench: its sweep, or its runs via the payload."""
    experiment = EXPERIMENTS[name]
    work = _TABLE_WORK.get(name)
    return BenchSpec(
        name=experiment.slug,
        description=experiment.description,
        suites=("core",),
        sweep=experiment.sweep,
        micro=None if work is None else lambda: lambda: work(experiment.run()[1]),
        repeats=2,
    )


def _paper_benches() -> list[BenchSpec]:
    """One core bench per table, except a table whose sweep an earlier
    table already runs (T3 reads T2's records)."""
    first: dict[object, str] = {}
    for name, experiment in EXPERIMENTS.items():
        first.setdefault(experiment.sweep or name, name)
    return [_paper_bench(name) for name in first.values()]


def _build() -> tuple[BenchSpec, ...]:
    return (
        # -- micro-kernels (smoke gate) --------------------------------
        BenchSpec(
            name="event_queue_ops",
            description="raw-tuple heap push/pop churn (the simulator inner loop)",
            suites=("smoke", "core"),
            micro=w.event_queue_kernel,
            repeats=5,
        ),
        BenchSpec(
            name="policy_queue_ops",
            description="PolicyQueue eligible-head selection under a random policy",
            suites=("smoke", "core"),
            micro=w.policy_queue_kernel,
            repeats=5,
        ),
        BenchSpec(
            name="message_codec",
            description="message encode/decode round-trip + compiled field count",
            suites=("smoke", "core"),
            micro=w.message_codec_kernel,
            repeats=5,
        ),
        BenchSpec(
            name="cache_ops",
            description="result cache cold put_many / warm get_many (256 records)",
            suites=("smoke", "core"),
            micro=w.cache_ops_kernel,
            repeats=5,
        ),
        BenchSpec(
            name="batch_runner",
            description="multi-seed batch execution of one cell group (8 seeds)",
            suites=("smoke", "core"),
            micro=w.batch_runner_kernel,
            repeats=3,
        ),
        BenchSpec(
            name="echo_wave",
            description="one echo spanning wave, n=96 (loop-dominated hot path)",
            suites=("smoke", "core"),
            micro=w.echo_wave_kernel,
            repeats=5,
        ),
        BenchSpec(
            name="full_protocol",
            description="full MDegST protocol on G(64, 0.1) — headline events/sec",
            suites=("smoke", "core"),
            micro=w.full_protocol_kernel,
            repeats=3,
        ),
        BenchSpec(
            name="smoke_sweep",
            description="both algorithms across small sparse/geometric instances",
            suites=("smoke",),
            sweep=w.SMOKE_SPEC,
            repeats=2,
        ),
        BenchSpec(
            name="campaign_tiny",
            description="tiny built-in campaign incl. fault + scheduler regimes",
            suites=("smoke", "core"),
            cells_fn=w.campaign_cells,
            repeats=2,
        ),
        # -- engine + startup (core) -----------------------------------
        BenchSpec(
            name="ghs_startup",
            description="GHS spanning-tree construction, the heaviest startup",
            suites=("core",),
            micro=w.ghs_startup_kernel,
            repeats=3,
        ),
        BenchSpec(
            name="gnp_generation",
            description="numpy-vectorized connected G(n, p) generation",
            suites=("core",),
            micro=w.gnp_generation_kernel,
            repeats=5,
        ),
        BenchSpec(
            name="group_fanout",
            description="group wire codec + worker-side batched execution (8 seeds)",
            suites=("core",),
            micro=w.group_fanout_kernel,
            repeats=3,
        ),
        BenchSpec(
            name="probe_path",
            description="fuzz-shaped probes: replay x churn, captured, n 6-8",
            suites=("core",),
            micro=w.probe_path_kernel,
            repeats=3,
        ),
        BenchSpec(
            name="executor_sweep",
            description="the executor-scaling sweep (24 cells, uniform delays)",
            suites=("core",),
            sweep=w.EXECUTOR_SPEC,
            repeats=2,
        ),
        # -- the paper's tables (core) --------------------------------
        *_paper_benches(),
    )


BUILTIN_BENCHES: tuple[BenchSpec, ...] = tuple(
    register_bench(spec) for spec in _build()
)
