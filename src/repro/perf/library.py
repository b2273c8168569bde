"""Built-in benchmark registry entries.

Importing this module registers every built-in bench (the package
``__init__`` does it, mirroring how :mod:`repro.scenarios.library`
registers scenarios). Suites:

* ``smoke`` — seconds-scale, runs on every CI push as the regression
  gate: the queue micro-kernels, the loop-dominated echo wave, the
  full-protocol reference workload, a two-algorithm sweep, and the
  tiny campaign (faults + adversarial schedules included, so the gate's
  work section covers every axis registry);
* ``core`` — the paper's t1–t9 experiment workloads plus the engine
  benches (what ``pytest benchmarks/`` regenerates as tables);
* ``full`` — implicitly everything registered.
"""

from __future__ import annotations

from . import workloads as w
from .spec import BenchSpec, register_bench

__all__ = ["BUILTIN_BENCHES"]


def _t1_micro():
    def run():
        rows = w.run_t1()
        work = w.mdst_result_work([res for _, _, res, _ in rows])
        work["claim_holds"] = sum(
            1 for _, _, res, opt in rows if res.final_degree <= opt + 1
        )
        return work

    return run


def _t4_micro():
    def run():
        rows = w.run_t4()
        return w.mdst_result_work(
            [conc for *_, conc, _ in rows] + [single for *_, single in rows]
        )

    return run


def _t5_micro():
    def run():
        return w.mdst_result_work([res for _, _, res in w.run_t5()])

    return run


def _t6_micro():
    def run():
        rows = w.run_t6()
        work = w.mdst_result_work([res for _, _, res in rows])
        work["startup_messages"] = sum(
            s.report.total_messages
            for _, s, _ in rows
            if s.report is not None
        )
        return work

    return run


def _t8_micro():
    def run():
        rows = w.run_t8()
        work = w.mdst_result_work([dist for _, _, dist, _, _ in rows])
        work["fr_degree_total"] = sum(fr.max_degree() for *_, fr in rows)
        work["local_search_degree_total"] = sum(
            simple.max_degree() for _, _, _, simple, _ in rows
        )
        return work

    return run


def _t9_micro():
    def run():
        return w.mdst_result_work([res for _, _, res in w.run_t9()])

    return run


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
            name="executor_sweep",
            description="the executor-scaling sweep (24 cells, uniform delays)",
            suites=("core",),
            sweep=w.EXECUTOR_SPEC,
            repeats=2,
        ),
        # -- the paper's experiments (core) ----------------------------
        BenchSpec(
            name="t1_degree_quality",
            description="T1: final degree vs ground truth (claim C1)",
            suites=("core",),
            micro=_t1_micro,
            repeats=2,
        ),
        BenchSpec(
            name="t2_messages",
            description="T2: message complexity vs O((k-k*)·m) (claim C2)",
            suites=("core",),
            sweep=w.CLAIMS_SPEC,
            repeats=2,
        ),
        BenchSpec(
            name="t3_time",
            description="T3: causal time vs O((k-k*)·n) (claim C3; T2's records)",
            suites=("core",),
            sweep=w.CLAIMS_SPEC,
            repeats=2,
        ),
        BenchSpec(
            name="t4_rounds",
            description="T4: rounds vs the k-k*+1 claim, concurrent vs single (C4)",
            suites=("core",),
            micro=_t4_micro,
            repeats=2,
        ),
        BenchSpec(
            name="t5_lower_bound",
            description="T5: messages vs the Korach-Moran-Zaks bound on K_n (C6)",
            suites=("core",),
            micro=_t5_micro,
            repeats=2,
        ),
        BenchSpec(
            name="t6_initial_tree",
            description="T6: startup-construction ablation (the §4.2 remark)",
            suites=("core",),
            micro=_t6_micro,
            repeats=2,
        ),
        BenchSpec(
            name="t7_message_size",
            description="T7: message-size audit, ≤4 id fields per message (C5)",
            suites=("core",),
            sweep=w.T7_SPEC,
            repeats=2,
        ),
        BenchSpec(
            name="t8_vs_sequential",
            description="T8: distributed vs sequential local search vs full F-R",
            suites=("core",),
            micro=_t8_micro,
            repeats=2,
        ),
        BenchSpec(
            name="t9_ablation",
            description="T9: concurrency mode x polish phase design ablation",
            suites=("core",),
            micro=_t9_micro,
            repeats=2,
        ),
    )


BUILTIN_BENCHES: tuple[BenchSpec, ...] = tuple(
    register_bench(spec) for spec in _build()
)
