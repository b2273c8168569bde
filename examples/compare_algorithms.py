#!/usr/bin/env python3
"""Head-to-head comparison of the registered distributed algorithms.

The algorithm table (``repro.algorithms.ALGORITHMS``) makes "which algorithm" an
experiment axis. This example compares the paper's Blin–Butelle MDegST
protocol with the Fürer–Raghavachari-style local-improvement protocol on
identical instances, three ways:

1. one instance in detail (``run_algorithm`` on a shared startup tree);
2. a sweep with an ``algorithms`` axis (identical cells per algorithm,
   cached and parallelizable like any sweep);
3. the equivalent CLI one-liner.

Run:  python examples/compare_algorithms.py
CLI:  python -m repro compare --family geometric --n 24 --exact
"""

from repro.algorithms import ALGORITHMS
from repro.analysis import SweepSpec, Table, run_sweep
from repro.graphs import random_geometric
from repro.sequential import optimal_degree
from repro.spanning import build_spanning_tree

# 1. one instance, both algorithms, same startup tree ----------------------
graph = random_geometric(n=24, radius=0.35, seed=11)
startup = build_spanning_tree(graph, method="echo", seed=11)
print(
    f"network: n={graph.n} m={graph.m}; startup tree degree "
    f"{startup.degree} (echo construction)"
)
print(f"exact optimum (small n): Δ* = {optimal_degree(graph)}\n")

for name, algo in sorted(ALGORITHMS.items()):
    result = algo.run(graph, startup.tree, seed=11)
    print(f"{name}: {algo.description}")
    print(
        f"  degree {result.initial_degree} -> {result.final_degree}"
        f" in {result.num_rounds} rounds,"
        f" {result.messages} messages, causal time {result.causal_time}"
    )

# 2. the same comparison as a sweep axis -----------------------------------
spec = SweepSpec(
    families=("geometric",),
    sizes=(16, 24),
    seeds=(0, 1, 2),
    algorithms=tuple(sorted(ALGORITHMS)),  # <- the new axis
)
records = run_sweep(spec)

table = Table(
    ["algorithm", "n", "seed", "k0", "k*", "rounds", "msgs"],
    title="sweep with an algorithms axis",
)
for r in records:
    table.add(r.algorithm, r.n, r.seed, r.k_initial, r.k_final, r.rounds, r.messages)
print()
print(table.render())

print(
    "\nCLI equivalents:\n"
    "  python -m repro compare --family geometric --n 24 --exact\n"
    "  python -m repro sweep --families geometric --sizes 16 24 "
    "--algorithm blin_butelle fr_local"
)
