"""T2 — message complexity (claim C2: O((k − k*)·m) messages).

Sweep n over two random families, regress total messages against the
predictor (k − k* + 1)·m, and report the fitted constant and R². The
claim "reproduces" iff the relationship is linear (R² high) with a small
constant — the paper's own per-round budget is 2m + 3(n−1) ≈ 2–5×m.

The table is ``EXPERIMENTS["t2"]`` of :mod:`repro.analysis.experiments`
(sweep spec :data:`~repro.analysis.experiments.CLAIMS_SPEC`, the
``t2_messages`` core bench).
"""

from repro.analysis import run_experiment


def test_t2_message_complexity(benchmark, emit, sweep_jobs, sweep_cache):
    text, payload = benchmark.pedantic(
        run_experiment,
        args=("t2", sweep_jobs, sweep_cache),
        rounds=1,
        iterations=1,
    )
    emit("t2_messages", text)
    records, per_round, claim = payload["records"], payload["per_round"], payload["claim"]

    # shape: the per-round Θ(m) budget is linear with a modest constant
    # (paper's own budget is 2m + 3(n−1) ≈ 2–5·m per round)
    assert per_round.r_squared >= 0.90
    assert 0.5 <= per_round.slope <= 8.0
    # the end-to-end relation stays linear-ish with bounded constants
    assert claim.r_squared >= 0.60
    assert all(r.messages_normalized <= 30 for r in records)
