"""T3 — time complexity (claim C3: O((k − k*)·n) time units).

Causal time = longest causal dependency chain with unit message delays —
the paper's measure exactly. Regressed against (k − k* + 1)·n.

The table is ``EXPERIMENTS["t3"]`` of :mod:`repro.analysis.experiments`
(the ``t3_time`` core bench). It shares T2's sweep spec, so a shared
``--cache`` pays for the runs once.
"""

from repro.analysis import run_experiment


def test_t3_time_complexity(benchmark, emit, sweep_jobs, sweep_cache):
    text, payload = benchmark.pedantic(
        run_experiment,
        args=("t3", sweep_jobs, sweep_cache),
        rounds=1,
        iterations=1,
    )
    emit("t3_time", text)
    records, per_round, claim = payload["records"], payload["per_round"], payload["claim"]

    assert per_round.r_squared >= 0.85
    assert per_round.slope <= 8.0
    assert claim.r_squared >= 0.50
    assert all(r.time_normalized <= 15 for r in records)
