#!/usr/bin/env python3
"""Reproduce the paper in one command.

Runs every paper table (T1..T9 of :mod:`repro.analysis.experiments`) and
prints each with the claim it tests — the one-stop entry point for a
reader who wants the measured evidence without the pytest harness. The
same definitions back ``python -m repro experiment tN``,
``benchmarks/bench_t*.py`` and the ``core`` bench suite.

Run:  python examples/reproduce_paper.py
"""

import time

from repro.analysis import EXPERIMENTS, run_experiment

print("Reproducing: Blin & Butelle, 'The First Approximated Distributed")
print("Algorithm for the Minimum Degree Spanning Tree Problem on General")
print("Graphs' (IPPS 2003). One table per claim.\n")

t_start = time.time()
for name, experiment in EXPERIMENTS.items():
    print(f"{'=' * 72}")
    print(f"[{name}] {experiment.description}")
    print(f"{'=' * 72}")
    text, _payload = run_experiment(name)
    print(text)
    print()
print(f"all tables reproduced in {time.time() - t_start:.1f}s")
