"""Head-to-head of the registered distributed algorithms.

The algorithm table's first payoff: one sweep with an ``algorithms`` axis runs
Blin–Butelle and the FR-style protocol on identical instances (same
graph, same startup tree, same delay schedule) and tabulates quality and
cost side by side. Honors ``--jobs`` / ``--cache`` like every
sweep-backed bench.
"""

from __future__ import annotations

from repro.algorithms import ALGORITHMS
from repro.analysis import SweepSpec, Table, run_sweep, summarize


def test_algorithm_head_to_head(emit, sweep_jobs, sweep_cache, scale):
    spec = SweepSpec(
        families=("gnp_sparse", "geometric", "complete"),
        sizes=tuple(n * scale for n in (16, 24)),
        seeds=(0, 1, 2, 3),
        delays=("uniform",),
        algorithms=tuple(sorted(ALGORITHMS)),
    )
    records = run_sweep(spec, jobs=sweep_jobs, cache=sweep_cache)

    table = Table(
        [
            "algorithm", "family", "n", "k0→k* (mean)", "rounds",
            "msgs/m", "time/n",
        ],
        title="registered algorithms, identical instances",
    )
    for algorithm in sorted(ALGORITHMS):
        for family in spec.families:
            for n in spec.sizes:
                group = [
                    r
                    for r in records
                    if r.algorithm == algorithm
                    and r.family == family
                    and r.n == n
                ]
                if not group:
                    continue
                k0 = summarize(r.k_initial for r in group)
                kf = summarize(r.k_final for r in group)
                rounds = summarize(r.rounds for r in group)
                msgs = summarize(r.messages / max(r.m, 1) for r in group)
                time_n = summarize(r.causal_time / max(r.n, 1) for r in group)
                table.add(
                    algorithm,
                    family,
                    n,
                    f"{k0.mean:.1f}→{kf.mean:.1f}",
                    f"{rounds.mean:.1f}",
                    f"{msgs.mean:.1f}",
                    f"{time_n.mean:.1f}",
                )
    emit("compare_algorithms", table.render())

    # identical instances ⇒ identical initial trees ⇒ comparable quality:
    # the two local-improvement orders end within one degree level
    by_cell: dict[tuple, dict[str, int]] = {}
    for r in records:
        by_cell.setdefault((r.family, r.n, r.seed), {})[r.algorithm] = r.k_final
    for cell, finals in by_cell.items():
        assert max(finals.values()) - min(finals.values()) <= 1, (cell, finals)
