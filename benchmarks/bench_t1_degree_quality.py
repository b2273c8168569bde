"""T1 — degree quality (claim C1: final degree ≤ Δ* + 1).

Ground truth comes from the exact solver (n ≤ 14) and from the
Hamiltonian-padded family (Δ* = 2 by construction) at larger sizes.
The table reports paper-claim vs measured for every instance.

The table is ``EXPERIMENTS["t1"]`` of :mod:`repro.analysis.experiments`
(also ``repro experiment t1`` and the ``t1_degree_quality`` core bench);
this wrapper times it, emits it and asserts its shape.
"""

from repro.analysis import run_experiment


def test_t1_degree_quality(benchmark, emit):
    text, payload = benchmark.pedantic(run_experiment, args=("t1",), rounds=1, iterations=1)
    emit("t1_degree_quality", text)
    rows_hold = payload["holds"]
    # shape assertion: the +1 claim holds on every ground-truth instance
    assert all(rows_hold)
