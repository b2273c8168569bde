#!/usr/bin/env python3
"""Reproduce the paper in one command.

Runs every experiment preset (T1..T8 of :mod:`repro.analysis.experiments`)
at unit scale and prints each table with its claim — the one-stop entry point for a
reader who wants the measured evidence without the pytest harness. For
larger sizes use ``python -m repro experiment t2 --scale 2`` or the full
benchmark suite (``pytest benchmarks/ --benchmark-only``).

Run:  python examples/reproduce_paper.py
"""

import time

from repro.analysis import EXPERIMENTS, run_experiment

CLAIMS = {
    "t1": "C1 — final degree ≤ Δ* + 1 (Theorem 1)",
    "t2": "C2 — O((k − k*)·m) messages (§4.2)",
    "t3": "C3 — O((k − k*)·n) time units (§4.2)",
    "t4": "C4 — k − k* + 1 rounds (§4.2)",
    "t5": "C6 — near the Korach–Moran–Zaks Ω(n²/k) bound (§1, §5)",
    "t6": "§4.2 — a better startup tree lowers the total cost",
    "t8": "quality parity with the sequential baselines (§1, [3])",
}

print("Reproducing: Blin & Butelle, 'The First Approximated Distributed")
print("Algorithm for the Minimum Degree Spanning Tree Problem on General")
print("Graphs' (IPPS 2003). One table per claim; benchmarks/bench_t*.py")
print("run the full-size versions.\n")

t_start = time.time()
for name in sorted(EXPERIMENTS):
    claim = CLAIMS.get(name, "")
    print(f"{'=' * 72}")
    print(f"[{name}] {claim}")
    print(f"{'=' * 72}")
    text, _payload = run_experiment(name)
    print(text)
    print()
print(f"all experiments reproduced in {time.time() - t_start:.1f}s")
