"""F2 — Figure 2 regenerated: the BFS wave and its cousin edges.

The paper states each edge is seen at most twice per round (BFS +
BFS-back). Our always-reply repair raises the per-edge budget to 2 waves
+ 2 replies on non-tree edges (see :class:`repro.mdst.messages.CousinReply`);
this bench audits the
actual per-round per-edge traffic and the cousin-reply pattern of
Figure 2.
"""

from repro.analysis import Table
from repro.graphs import gnp_connected, random_geometric
from repro.mdst import run_mdst
from repro.spanning import greedy_hub_tree

CASES = [
    ("gnp-24", gnp_connected(24, 0.2, seed=3)),
    ("gnp-40", gnp_connected(40, 0.12, seed=4)),
    ("geo-30", random_geometric(30, 0.35, seed=5)),
]


def test_f2_wave_coverage(benchmark, emit):
    def run_all():
        return [(name, g, run_mdst(g, greedy_hub_tree(g), seed=0)) for name, g in CASES]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table(
        ["instance", "rounds", "waves+cuts", "per edge/round",
         "cousin replies", "per non-tree edge/round", "budget"],
        title="F2 — BFS wave coverage per round (Figure 2)",
    )
    for name, g, res in rows:
        by = res.report.by_type
        waves = by.get("BfsWave", 0) + by.get("Cut", 0)
        replies = by.get("CousinReply", 0)
        rounds = max(res.num_rounds, 1)
        nontree = g.m - g.n + 1
        wave_rate = waves / (g.m * rounds)
        reply_rate = replies / (max(nontree, 1) * rounds)
        table.add(
            name, res.num_rounds, waves, round(wave_rate, 2),
            replies, round(reply_rate, 2), "≤ 2 each",
        )
        # per round: tree edges carry 1 wave, non-tree edges 2 waves + 2
        # replies (paper: 2 total; the delta is the always-reply repair)
        assert waves <= (2 * nontree + g.n - 1) * (res.num_rounds + 1)
        assert replies <= 2 * nontree * (res.num_rounds + 1)
    emit("f2_bfs_wave", table.render())
