"""T9 (extension) — protocol design ablation.

The paper leaves two design choices open: the
concurrency mode (§3.2.6 concurrent vs one-target-per-round) and the
polish phase (recovering cross-region exchanges after the same-cutter
restriction). This bench quantifies both axes on the same instances —
the ablation table of both choices.

The table is ``EXPERIMENTS["t9"]`` of :mod:`repro.analysis.experiments`
(the ``t9_ablation`` core bench).
"""

from repro.analysis import run_experiment


def test_t9_design_ablation(benchmark, emit):
    text, payload = benchmark.pedantic(run_experiment, args=("t9",), rounds=1, iterations=1)
    emit("t9_ablation", text)
    by_case = payload["by_case"]

    for name, cfgs in by_case.items():
        full = cfgs["concurrent+polish"]
        nopolish = cfgs["concurrent, no polish"]
        single = cfgs["single-target"]
        # polish can only improve (or match) final quality
        assert full.final_degree <= nopolish.final_degree
        # polished concurrent matches single-target's stopping quality
        assert abs(full.final_degree - single.final_degree) <= 1
        # concurrency reduces rounds when many max-degree nodes coexist
        if max(r.cutters for r in full.rounds) >= 4:
            assert full.num_rounds <= single.num_rounds + 2
