"""T4 — round count (claim C4: k − k* + 1 rounds).

Concurrent mode (every max-degree node improves per round, §3.2.6) is
compared with single-target mode on workloads engineered to have many
simultaneous max-degree nodes. The paper's claim is the concurrent
figure; single-target shows what serializing the improvements costs.

The table is ``EXPERIMENTS["t4"]`` of :mod:`repro.analysis.experiments`
(the ``t4_rounds`` core bench).
"""

from repro.analysis import run_experiment


def test_t4_round_count(benchmark, emit):
    text, payload = benchmark.pedantic(run_experiment, args=("t4",), rounds=1, iterations=1)
    emit("t4_rounds", text)
    rows, ratios = payload["rows"], payload["ratios"]

    # shape: concurrent rounds track the claim within a small factor
    # (same-cutter restriction + polish rounds add a bounded overhead)
    assert all(r <= 4.0 for r in ratios)
    # single-target serializes improvements: at least as many rounds
    for _name, _g, _t0, conc, single in rows:
        assert single.num_rounds + 2 >= conc.num_rounds or single.num_rounds >= conc.num_rounds
