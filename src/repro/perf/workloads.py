"""Engine benchmark workloads: the smoke, executor and campaign sweep
specs and the micro-kernels.

:mod:`repro.perf.library` registers them as
:class:`~repro.perf.spec.BenchSpec` entries, and the engine benches
under ``benchmarks/`` import the same definitions. The paper's tables
T1–T9 live in :mod:`repro.analysis.experiments`. Kernels build their
inputs when called, so importing the registry never pays for graph
generation.
"""

from __future__ import annotations

import hashlib
import json

from ..analysis.executor import RunSpec
from ..analysis.harness import SweepSpec
from ..analysis.records import RunRecord
from ..graphs import gnp_connected
from ..mdst import MDSTResult, run_mdst
from ..sim.events import EventKind, EventQueue
from ..sim.scheduler import PolicyQueue, scheduler_from_name
from ..spanning import build_spanning_tree, greedy_hub_tree

__all__ = [
    "EXECUTOR_SPEC",
    "SMOKE_SPEC",
    "CAMPAIGN_SCENARIOS",
    "campaign_cells",
    "mdst_result_work",
    "cache_ops_kernel",
    "group_fanout_kernel",
    "event_queue_kernel",
    "policy_queue_kernel",
    "message_codec_kernel",
    "batch_runner_kernel",
    "PROBE_PATH_SPECS",
    "probe_path_kernel",
    "echo_wave_kernel",
    "full_protocol_kernel",
    "ghs_startup_kernel",
    "gnp_generation_kernel",
]

# -- sweep-lowered workloads -----------------------------------------------

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


#: The ``probe_path`` bench's fixed probes: replay schedules (random and
#: lifo fallbacks, with and without a choice prefix) × churn plans × both
#: algorithms at n ∈ {6, 8} -- the shape of a fuzz campaign's probes.
PROBE_PATH_SPECS: tuple[RunSpec, ...] = tuple(
    RunSpec(
        family="gnp_sparse",
        n=n,
        seed=seed,
        initial_method="random",
        algorithm=algorithm,
        scheduler=scheduler,
        churn=churn,
    )
    for n in (6, 8)
    for seed in (0, 1)
    for churn in ("none", "restart_one", "restart_wave")
    for scheduler in ("replay", "replay:lifo", "replay:random:5.0.33.2.17", "replay:lifo:9.24.32")
    for algorithm in ("blin_butelle", "fr_local")
)


def probe_path_kernel():
    """Exploration probes through :func:`~repro.exploration.probe_cell`:
    the captured, policy-ordered path every fuzz probe takes (build,
    policy drive loop, causal tally, judge). Work metrics: events,
    messages and an integer digest of the records' causal summaries."""
    from ..exploration import probe_cell

    def run() -> dict[str, int]:
        records = [probe_cell(spec) for spec in PROBE_PATH_SPECS]
        causal = json.dumps([r.causal for r in records], sort_keys=True)
        return {
            "probes": len(records),
            "events": sum(r.events for r in records),
            "messages": sum(r.messages for r in records),
            "causal_digest": int(hashlib.sha256(causal.encode("utf-8")).hexdigest()[:12], 16),
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
