"""T9 (extension) — protocol design ablation.

The paper leaves two design choices open: the
concurrency mode (§3.2.6 concurrent vs one-target-per-round) and the
polish phase (recovering cross-region exchanges after the same-cutter
restriction). This bench quantifies both axes on the same instances —
the ablation table of both choices.

Cases + configs live in :mod:`repro.perf.workloads` (the registry's
``t9_ablation`` bench).
"""

from repro.analysis import Table
from repro.perf.workloads import run_t9


def test_t9_design_ablation(benchmark, emit):
    rows = benchmark.pedantic(run_t9, rounds=1, iterations=1)
    table = Table(
        ["instance", "config", "k0", "k*", "rounds", "messages", "causal time"],
        title="T9 — design ablation: concurrency mode × polish phase",
    )
    by_case: dict[str, dict[str, object]] = {}
    for name, label, res in rows:
        by_case.setdefault(name, {})[label] = res
        table.add(name, label, res.initial_degree, res.final_degree,
                  res.num_rounds, res.messages, res.causal_time)
    emit("t9_ablation", table.render())

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
