"""Shared benchmark workloads: case lists, sweep specs, micro-kernels.

Single source of truth for *what* every benchmark runs. The pytest
benches under ``benchmarks/`` import these to render their paper-style
tables and shape assertions; :mod:`repro.perf.library` wraps the same
definitions into registered :class:`~repro.perf.spec.BenchSpec` entries
so ``repro bench`` measures the identical workloads. Case builders are
functions (not module-level constants) so importing the registry never
pays for graph generation.
"""

from __future__ import annotations

from ..graphs import (
    caterpillar_graph,
    complete,
    gnp_connected,
    hamiltonian_padded,
    random_geometric,
    wheel,
)
from ..mdst import MDSTConfig, MDSTResult, run_mdst
from ..analysis.executor import RunSpec
from ..analysis.harness import SweepSpec
from ..analysis.records import RunRecord
from ..sequential import (
    fuerer_raghavachari,
    local_search_mdst,
    optimal_degree,
)
from ..sim.events import EventKind, EventQueue
from ..sim.scheduler import PolicyQueue, scheduler_from_name
from ..spanning import build_spanning_tree, greedy_hub_tree

__all__ = [
    "CLAIMS_SPEC",
    "T7_SPEC",
    "EXECUTOR_SPEC",
    "SMOKE_SPEC",
    "CAMPAIGN_SCENARIOS",
    "campaign_cells",
    "t1_cases",
    "run_t1",
    "t4_cases",
    "run_t4",
    "T5_SIZES",
    "run_t5",
    "T6_METHODS",
    "t6_graph",
    "run_t6",
    "t8_cases",
    "run_t8",
    "t9_cases",
    "T9_CONFIGS",
    "run_t9",
    "mdst_result_work",
    "cache_ops_kernel",
    "group_fanout_kernel",
    "event_queue_kernel",
    "policy_queue_kernel",
    "message_codec_kernel",
    "batch_runner_kernel",
    "echo_wave_kernel",
    "full_protocol_kernel",
    "ghs_startup_kernel",
    "gnp_generation_kernel",
]

# -- sweep-lowered workloads -----------------------------------------------

#: T2 (message complexity) and T3 (time complexity) regress the same
#: record set against their respective predictors.
CLAIMS_SPEC = SweepSpec(
    families=("gnp_sparse", "geometric"),
    sizes=(16, 24, 32, 48, 64),
    seeds=(0, 1, 2),
    initial_methods=("echo",),
    modes=("concurrent",),
)

#: T7 — message-size audit over growing n (claim C5).
T7_SPEC = SweepSpec(
    families=("gnp_sparse",),
    sizes=(16, 32, 64, 96),
    seeds=(0,),
)

#: Executor-scaling workload: enough cells for process-pool fan-out to
#: amortize worker startup (``benchmarks/bench_executor_scaling.py``).
EXECUTOR_SPEC = SweepSpec(
    families=("gnp_sparse", "geometric"),
    sizes=(24, 32, 40),
    seeds=(0, 1, 2, 3),
    initial_methods=("echo",),
    modes=("concurrent",),
    delays=("uniform",),
)

#: The CI smoke sweep: both registered algorithms on small instances —
#: small enough for the gate to run in seconds, wide enough that a work
#: regression in either protocol trips it.
SMOKE_SPEC = SweepSpec(
    families=("gnp_sparse", "geometric"),
    sizes=(16, 24),
    seeds=(0, 1),
    initial_methods=("echo",),
    modes=("concurrent",),
    algorithms=("blin_butelle", "fr_local"),
)

#: Scenario stack coverage for the smoke gate: the paper regime plus
#: fault and adversarial-schedule regimes, shrunk the CI way.
CAMPAIGN_SCENARIOS = (
    "paper_baseline",
    "lossy_links",
    "crash_storm",
    "schedule_storm",
)


def campaign_cells() -> tuple[RunSpec, ...]:
    """Flatten the tiny built-in campaign into executor cells."""
    from ..scenarios.library import builtin_campaign

    campaign = builtin_campaign(list(CAMPAIGN_SCENARIOS)).tiny()
    return tuple(
        cell for scenario in campaign.scenarios for cell in scenario.cells()
    )


# -- t-experiment case lists ------------------------------------------------

#: Hamiltonian-padded sizes with Δ* = 2 by construction (T1).
T1_HAM_SIZES = (24, 36, 48)


def t1_cases() -> list[tuple[str, object]]:
    """Ground-truth instances for the degree-quality claim (C1)."""
    return [
        ("complete", complete(10)),
        ("wheel", wheel(12)),
        ("gnp", gnp_connected(12, 0.35, seed=1)),
        ("gnp", gnp_connected(14, 0.3, seed=2)),
        ("hamiltonian", hamiltonian_padded(12, 14, seed=3)),
    ]


def run_t1() -> list[tuple[str, object, MDSTResult, int]]:
    """(name, graph, result, Δ*) per ground-truth instance."""
    rows = []
    for name, g in t1_cases():
        res = run_mdst(g, greedy_hub_tree(g), seed=0)
        rows.append((name, g, res, optimal_degree(g)))
    for n in T1_HAM_SIZES:
        g = hamiltonian_padded(n, 2 * n, seed=n)
        res = run_mdst(g, greedy_hub_tree(g), seed=0)
        rows.append(("hamiltonian", g, res, 2))
    return rows


def t4_cases() -> list[tuple[str, object]]:
    """Workloads engineered to have many simultaneous max-degree nodes."""
    return [
        ("complete-12", complete(12)),
        ("wheel-14", wheel(14)),
        ("caterpillar-6x3", caterpillar_graph(6, 3)),
        ("caterpillar-8x4", caterpillar_graph(8, 4)),
        ("gnp-32", gnp_connected(32, 0.18, seed=4)),
    ]


def run_t4() -> list[tuple[str, object, object, MDSTResult, MDSTResult]]:
    """(name, graph, t0, concurrent result, single-target result)."""
    rows = []
    for name, g in t4_cases():
        t0 = greedy_hub_tree(g)
        conc = run_mdst(g, t0, config=MDSTConfig(mode="concurrent"), seed=0)
        single = run_mdst(g, t0, config=MDSTConfig(mode="single"), seed=0)
        rows.append((name, g, t0, conc, single))
    return rows


#: Complete-graph sizes for the Korach–Moran–Zaks comparison (C6).
T5_SIZES = (8, 12, 16, 24, 32)


def run_t5() -> list[tuple[int, object, MDSTResult]]:
    rows = []
    for n in T5_SIZES:
        g = complete(n)
        rows.append((n, g, run_mdst(g, greedy_hub_tree(g), seed=0)))
    return rows


#: Every startup construction in the library (T6 ablation).
T6_METHODS = ("echo", "dfs", "ghs", "bfs", "cdfs", "random", "greedy_hub")


def t6_graph():
    return gnp_connected(40, 0.15, seed=9)


def run_t6() -> list[tuple[str, object, MDSTResult]]:
    g = t6_graph()
    rows = []
    for method in T6_METHODS:
        startup = build_spanning_tree(g, method=method, seed=9)
        rows.append((method, startup, run_mdst(g, startup.tree, seed=9)))
    return rows


def t8_cases() -> list[tuple[str, object]]:
    return [
        ("complete-12", complete(12)),
        ("wheel-12", wheel(12)),
        ("caterpillar", caterpillar_graph(6, 3)),
        ("gnp-28", gnp_connected(28, 0.2, seed=5)),
        ("gnp-36", gnp_connected(36, 0.15, seed=6)),
        ("geo-30", random_geometric(30, 0.35, seed=7)),
    ]


def run_t8() -> list[tuple[str, object, MDSTResult, object, object]]:
    """(name, t0, distributed, sequential local search, full F-R tree)."""
    rows = []
    for name, g in t8_cases():
        t0 = greedy_hub_tree(g)
        dist = run_mdst(g, t0, seed=0)
        simple, _swaps = local_search_mdst(g, t0)
        fr, _stats = fuerer_raghavachari(g, t0)
        rows.append((name, t0, dist, simple, fr))
    return rows


def t9_cases() -> list[tuple[str, object]]:
    return [
        ("caterpillar-8x4", caterpillar_graph(8, 4)),
        ("gnp-36", gnp_connected(36, 0.15, seed=2)),
        ("geo-32", random_geometric(32, 0.34, seed=3)),
    ]


T9_CONFIGS = (
    ("concurrent+polish", MDSTConfig(mode="concurrent", polish=True)),
    ("concurrent, no polish", MDSTConfig(mode="concurrent", polish=False)),
    ("single-target", MDSTConfig(mode="single")),
)


def run_t9() -> list[tuple[str, str, MDSTResult]]:
    rows = []
    for name, g in t9_cases():
        t0 = greedy_hub_tree(g)
        for label, cfg in T9_CONFIGS:
            rows.append((name, label, run_mdst(g, t0, config=cfg, seed=0)))
    return rows


def mdst_result_work(results: list[MDSTResult]) -> dict[str, int]:
    """Exact work aggregates over protocol results (micro benches)."""
    return {
        "runs": len(results),
        "events": sum(r.report.events_processed for r in results),
        "messages": sum(r.messages for r in results),
        "rounds": sum(r.num_rounds for r in results),
        "bits": sum(r.report.total_bits for r in results),
        "causal_time": sum(r.causal_time for r in results),
        "k_final_total": sum(r.final_degree for r in results),
    }


# -- micro-kernels ----------------------------------------------------------


def event_queue_kernel():
    """Raw-tuple heap churn: what ``Network``'s inner loop executes."""
    waves, per_wave = 3, 2000

    def run() -> dict[str, int]:
        ops = 0
        for wave in range(waves):
            q = EventQueue()
            for i in range(per_wave):
                q.push_raw(float(i % 97), EventKind.START, target=i)
            while q:
                q.pop_raw()
            ops += 2 * per_wave
        return {"ops": ops}

    return run


def policy_queue_kernel():
    """Eligible-head selection under a seeded random policy: many
    concurrent links, interleaved push/pop (guards the incremental
    head-list bookkeeping in :class:`~repro.sim.scheduler.PolicyQueue`)."""
    n = 64

    def run() -> dict[str, int]:
        policy = scheduler_from_name("random")
        policy.bind(0, n)
        q = PolicyQueue(policy, n=n)
        ops = 0
        for wave in range(20):
            for i in range(100):
                src, dst = (i * 7) % n, (i * 13 + wave) % n
                if src == dst:
                    dst = (dst + 1) % n
                q.push_raw(0.0, EventKind.DELIVER, dst, src, None, 1)
                ops += 1
            for _ in range(60):
                q.pop_raw()
                ops += 1
        while q:
            q.pop_raw()
            ops += 1
        return {"ops": ops}

    return run


def echo_wave_kernel():
    """One echo spanning wave on a mid-size sparse graph. Handlers are
    trivial, so the simulator loop dominates — this is the bench most
    sensitive to hot-path regressions (the ``slow_event_loop`` mutation
    moves it by ~1.4–2x)."""
    g = gnp_connected(96, 0.08, seed=7)

    def run() -> dict[str, int]:
        startup = build_spanning_tree(g, method="echo")
        report = startup.report
        return {
            "events": report.events_processed,
            "messages": report.total_messages,
            "bits": report.total_bits,
        }

    return run


def full_protocol_kernel():
    """The PR 1 reference workload: the full MDegST protocol on
    G(n=64, p=0.1) — the headline events/sec figure."""
    g = gnp_connected(64, 0.1, seed=4)
    t0 = greedy_hub_tree(g)

    def run() -> dict[str, int]:
        return mdst_result_work([run_mdst(g, t0)])

    return run


def ghs_startup_kernel():
    """GHS, the heaviest distributed startup construction."""
    g = gnp_connected(48, 0.15, seed=2)

    def run() -> dict[str, int]:
        startup = build_spanning_tree(g, method="ghs")
        report = startup.report
        return {
            "events": report.events_processed,
            "messages": report.total_messages,
            "bits": report.total_bits,
        }

    return run


def message_codec_kernel():
    """Message codec round-trip: encode/decode + compiled field count
    over a fixed protocol-message vocabulary (the engine-v2 accounting
    path; work metrics are independent of live registry state)."""
    from ..mdst.messages import (
        BfsWave,
        CousinReply,
        Cut,
        DegreeReport,
        MoveRoot,
        Search,
        Terminate,
        WaveEcho,
    )
    from ..sim.codec import codec_entry, decode_message, encode_message

    vocab = (
        Search(reset=False, single=True),
        DegreeReport(deg=5, node=12, count=2),
        MoveRoot(k=4, target=9, round=3),
        Cut(k=4, cutter=7),
        BfsWave(k=4, frag_root=7, frag_child=3, tree=True),
        CousinReply(frag_root=7, frag_child=3, deg=4),
        WaveEcho(local=2, remote=11, deg=5),
        Terminate(),
    )
    rounds = 3000

    def run() -> dict[str, int]:
        ops = 0
        id_fields = 0
        for _ in range(rounds):
            for msg in vocab:
                if decode_message(encode_message(msg)) != msg:
                    raise AssertionError(f"codec round-trip failed for {msg!r}")
                id_fields += codec_entry(msg.__class__).count(msg)
                ops += 2
        return {"ops": ops, "id_fields": id_fields, "message_types": len(vocab)}

    return run


def cache_ops_kernel():
    """Result-cache throughput: one cold ``put_many`` plus a disk-tier
    and a memory-tier ``get_many`` over a synthetic record set (no
    simulation — this isolates the results-I/O layer the caching
    executor sits on)."""
    import shutil
    import tempfile

    from ..analysis.cache import ResultCache

    count = 256
    specs = [RunSpec(family="ring", n=8, seed=seed) for seed in range(count)]
    records = [
        RunRecord(
            family="ring",
            n=8,
            m=8,
            seed=seed,
            initial_method="echo",
            mode="concurrent",
            delay="unit",
            k_initial=3,
            k_final=2,
            rounds=1 + seed % 5,
            messages=100 + seed,
            causal_time=50 + seed,
            bits=1000 + 8 * seed,
            max_msg_fields=4,
            startup_messages=20 + seed,
            events=200 + seed,
        )
        for seed in range(count)
    ]

    def run() -> dict[str, int]:
        root = tempfile.mkdtemp(prefix="repro-cacheops-")
        try:
            cold = ResultCache(root)
            written = cold.put_many(list(zip(specs, records)))
            disk = ResultCache(root)  # fresh memory tier: reads hit disk
            disk_hits = sum(r is not None for r in disk.get_many(specs))
            memory_hits = sum(r is not None for r in disk.get_many(specs))
            if not (written == disk_hits == memory_hits == count):
                raise AssertionError(
                    f"cache_ops lost entries: {written}/{disk_hits}/{memory_hits}"
                )
            return {
                "entries": count,
                "ops": 3 * count,
                "disk_hits": disk_hits,
                "memory_hits": memory_hits,
            }
        finally:
            shutil.rmtree(root, ignore_errors=True)

    return run


def group_fanout_kernel():
    """Group fan-out machinery, in-process: encode one seed-varying cell
    group the parallel wire way, execute it through the worker entry
    point (group runner included), decode the record rows —
    the per-group cost a ``--jobs N`` worker pays, minus the IPC."""
    from ..analysis.executor import (
        _decode_records,
        _encode_group,
        _run_group_json,
        execute_cell,
    )

    cells = [RunSpec(family="gnp_sparse", n=24, seed=seed) for seed in range(8)]

    def run() -> dict[str, int]:
        payload = _encode_group(cells)
        records = _decode_records(_run_group_json(execute_cell, payload)["rows"])
        return {
            "cells": len(records),
            "events": sum(r.events for r in records),
            "messages": sum(r.messages for r in records),
            "bits": sum(r.bits for r in records),
        }

    return run


def batch_runner_kernel():
    """Multi-seed batch execution: one seed-varying cell group through
    the batching :class:`~repro.analysis.executor.SerialExecutor`
    (one template resolution per group; the work metrics
    are the summed per-record metrics, byte-identical to per-cell runs)."""
    from ..analysis.executor import SerialExecutor

    cells = [RunSpec(family="gnp_sparse", n=32, seed=seed) for seed in range(8)]

    def run() -> dict[str, int]:
        records = SerialExecutor().run(cells)
        return {
            "cells": len(records),
            "events": sum(r.events for r in records),
            "messages": sum(r.messages for r in records),
            "bits": sum(r.bits for r in records),
        }

    return run


def gnp_generation_kernel():
    """Numpy-vectorized connected G(n, p) generation."""

    def run() -> dict[str, int]:
        edges = 0
        for seed in range(3):
            edges += gnp_connected(128, 0.08, seed=seed).m
        return {"graphs": 3, "ops": edges}

    return run
