"""Micro-benchmarks of the hot substrate paths (per the hpc-parallel
guides: measure before optimizing; these guard the constants).

* event queue push/pop throughput (the simulator's inner loop);
* PolicyQueue eligible-head selection (the adversarial-schedule loop);
* graph generation (numpy-vectorized G(n, p));
* GHS end-to-end (the heaviest startup construction);
* one full MDegST round on a mid-size network.

The kernels are the registry's in-process benches
(:mod:`repro.perf.workloads` — ``repro bench --suite smoke`` gates
them); the pytest-benchmark wrappers remain for ``pytest benchmarks/``
timing tables.
"""

from repro.graphs import gnp_connected
from repro.mdst import MDSTConfig, run_mdst
from repro.perf.workloads import (
    echo_wave_kernel,
    event_queue_kernel,
    ghs_startup_kernel,
    gnp_generation_kernel,
    policy_queue_kernel,
)
from repro.spanning import greedy_hub_tree


def test_micro_event_queue(benchmark):
    """Raw-tuple path: what Network's inner loop actually executes."""
    benchmark(event_queue_kernel())


def test_micro_policy_queue(benchmark):
    """Eligible-head selection under a seeded random policy (guards the
    incremental head-list bookkeeping)."""
    benchmark(policy_queue_kernel())


def test_micro_gnp_generation(benchmark):
    benchmark(gnp_generation_kernel())


def test_micro_echo_wave(benchmark):
    """Loop-dominated spanning wave — the hot-path canary."""
    kernel = echo_wave_kernel()
    work = benchmark.pedantic(kernel, rounds=3, iterations=1)
    assert work["events"] > 0


def test_micro_ghs(benchmark):
    kernel = ghs_startup_kernel()
    work = benchmark.pedantic(kernel, rounds=3, iterations=1)
    assert work["events"] > 0


def test_micro_one_round(benchmark):
    g = gnp_connected(48, 0.15, seed=3)
    t0 = greedy_hub_tree(g)

    result = benchmark.pedantic(
        lambda: run_mdst(g, t0, config=MDSTConfig(max_rounds=1)),
        rounds=3,
        iterations=1,
    )
    assert result.num_rounds <= 1


def test_micro_full_protocol(benchmark):
    g = gnp_connected(64, 0.1, seed=4)
    t0 = greedy_hub_tree(g)
    result = benchmark.pedantic(
        lambda: run_mdst(g, t0), rounds=3, iterations=1
    )
    assert result.final_degree <= result.initial_degree
