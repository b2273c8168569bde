"""T5 — near-optimality of message complexity (claim C6).

Korach–Moran–Zaks: any algorithm building a degree-≤k spanning tree on a
complete network needs Ω(n²/k) messages. The paper argues its O((k−k*)·m)
is "not far from optimal". On K_n: m = n(n−1)/2, the protocol ends at
k* = 2, so we compare measured messages against the n²/k* reference —
the ratio should be a modest, slowly-growing factor (the paper never
claims matching the bound, only closeness).

The table is ``EXPERIMENTS["t5"]`` of :mod:`repro.analysis.experiments`
(the ``t5_lower_bound`` core bench).
"""

from repro.analysis import run_experiment


def test_t5_kmz_lower_bound(benchmark, emit):
    text, payload = benchmark.pedantic(run_experiment, args=("t5",), rounds=1, iterations=1)
    emit("t5_lower_bound", text)
    rows, fit = payload["rows"], payload["fit"]

    assert all(res.final_degree == 2 for _, _, res in rows)
    # the gap factor grows at most linearly in n (worst-case-consistent)
    assert fit.r_squared >= 0.7
    assert fit.slope <= 40
