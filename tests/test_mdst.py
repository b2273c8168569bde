"""Tests for the distributed MDegST protocol (the paper's contribution)."""

import pytest

from repro.errors import NotConnectedError, ReproError
from repro.graphs import (
    Graph,
    caterpillar_graph,
    complete,
    gnp_connected,
    hamiltonian_padded,
    hypercube,
    path_graph,
    random_geometric,
    ring,
    spider,
    star,
    wheel,
)
from repro.mdst import MDSTConfig, run_mdst
from repro.mdst import messages as M
from repro.sim import ExponentialDelay, PerLinkDelay, UniformDelay
from repro.spanning import build_spanning_tree, greedy_hub_tree

GRAPHS = {
    "k8": complete(8),
    "wheel10": wheel(10),
    "caterpillar": caterpillar_graph(5, 3),
    "spider": spider(5, 3),
    "cube4": hypercube(4),
    "gnp": gnp_connected(24, 0.2, seed=3),
    "geo": random_geometric(20, 0.45, seed=4),
    "ham": hamiltonian_padded(20, 40, seed=5),
}


class TestConfig:
    def test_defaults(self):
        cfg = MDSTConfig()
        assert cfg.mode == "concurrent" and cfg.polish

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            MDSTConfig(mode="warp")

    def test_bad_max_rounds(self):
        with pytest.raises(ValueError):
            MDSTConfig(max_rounds=0)


class TestMessageSizes:
    """Claim C5: every message carries at most 4 identity-sized fields."""

    ALL_MESSAGES = [
        M.Search(reset=True, single=False),
        M.DegreeReport(deg=3, node=7, count=2),
        M.DegreeReport(deg=3, node=7, elig_deg=3, elig_node=9),
        M.MoveRoot(k=5, target=3, count=2, round=4),
        M.MoveRootAck(),
        M.Cut(k=5, cutter=1),
        M.BfsWave(k=5, frag_root=1, frag_child=2, tree=True),
        M.CousinReply(frag_root=1, frag_child=2, deg=3),
        M.WaveEcho(local=4, remote=5, deg=2),
        M.Update(local=4, remote=5),
        M.ChildMsg(),
        M.ChildAck(),
        M.FlipBack(),
        M.ExchangeDone(),
        M.ImproveReport(improved=True),
        M.Terminate(),
    ]

    @pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: m.type_name)
    def test_at_most_four_fields(self, msg):
        assert msg.id_field_count() <= 4

    def test_all_protocol_types_covered(self):
        covered = {type(m).__name__ for m in self.ALL_MESSAGES}
        declared = set(M.__all__)
        assert covered == declared


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("mode", ["concurrent", "single"])
class TestProtocolCorrectness:
    def test_produces_valid_improved_tree(self, gname, mode):
        g = GRAPHS[gname]
        t0 = greedy_hub_tree(g)
        res = run_mdst(g, t0, config=MDSTConfig(mode=mode), check_invariants=True)
        assert res.final_tree.is_spanning_tree_of(g)
        assert res.final_degree <= res.initial_degree
        assert res.report.quiescent

    def test_async_delays_same_safety(self, gname, mode):
        g = GRAPHS[gname]
        t0 = greedy_hub_tree(g)
        for delay in (UniformDelay(), ExponentialDelay(), PerLinkDelay()):
            res = run_mdst(
                g,
                t0,
                config=MDSTConfig(mode=mode),
                delay=delay,
                seed=13,
                check_invariants=True,
            )
            assert res.final_tree.is_spanning_tree_of(g)
            assert res.final_degree <= res.initial_degree


class TestQuality:
    """Claim C1 on families with known optimal degree Δ*."""

    def test_complete_graph_reaches_chain(self):
        for n in (6, 8, 12):
            res = run_mdst(complete(n), greedy_hub_tree(complete(n)))
            assert res.final_degree == 2  # Δ* = 2, achieved exactly

    def test_wheel_reaches_low_degree(self):
        g = wheel(12)
        res = run_mdst(g, greedy_hub_tree(g))
        assert res.final_degree <= 3  # Δ* = 2

    @pytest.mark.parametrize("seed", range(4))
    def test_hamiltonian_padded_within_one(self, seed):
        g = hamiltonian_padded(20, 40, seed=seed)
        t0 = greedy_hub_tree(g)
        res = run_mdst(g, t0, seed=seed)
        assert res.final_degree <= 3  # Δ* = 2, claim: ≤ Δ* + 1

    def test_star_graph_cannot_improve(self):
        g = star(8)
        res = run_mdst(g, build_spanning_tree(g, method="bfs").tree)
        assert res.final_degree == 7  # forced: Δ* = n - 1

    def test_ring_terminates_immediately(self):
        g = ring(9)
        res = run_mdst(g, build_spanning_tree(g, method="cdfs").tree)
        assert res.final_degree == 2
        assert res.num_rounds == 0  # k=2 at first search: no round marked
        assert res.messages > 0  # search + terminate still exchanged


class TestComplexity:
    """Claims C2/C3: per-round O(m) messages / O(n) time; C4 rounds."""

    def _bound_messages(self, g, res):
        # per round: search+report+terminate+move <= 4n, tree waves <= n,
        # cross waves+replies <= 4(m-n+1), echoes <= n, exchange <= 3n,
        # improve reports <= cutters * height <= c*n
        n, m = g.n, g.m
        cutters = max((r.cutters for r in res.rounds), default=1)
        per_round = 9 * n + 4 * m + cutters * n
        return (res.num_rounds + 1) * per_round + n

    @pytest.mark.parametrize("gname", sorted(GRAPHS))
    def test_message_bound(self, gname):
        g = GRAPHS[gname]
        res = run_mdst(g, greedy_hub_tree(g))
        assert res.messages <= self._bound_messages(g, res)

    @pytest.mark.parametrize("gname", sorted(GRAPHS))
    def test_time_bound(self, gname):
        g = GRAPHS[gname]
        res = run_mdst(g, greedy_hub_tree(g))
        # per round the longest causal chain is O(n); generous constant
        assert res.causal_time <= 12 * g.n * (res.num_rounds + 1)

    def test_rounds_track_degree_drop_concurrent(self):
        # on K_n from a star, exactly one max-degree node per level:
        # rounds = k - k* (+ no final discovery round since k hits 2)
        g = complete(10)
        res = run_mdst(g, greedy_hub_tree(g))
        assert res.num_rounds <= res.degree_drop + 2

    def test_max_fields_bound_on_runs(self):
        for gname in ("k8", "gnp", "caterpillar"):
            res = run_mdst(GRAPHS[gname], greedy_hub_tree(GRAPHS[gname]))
            assert res.report.max_id_fields <= 4  # claim C5


class TestRoundLog:
    def test_k_non_increasing(self):
        g = GRAPHS["gnp"]
        res = run_mdst(g, greedy_hub_tree(g))
        ks = [r.k for r in res.rounds]
        assert all(a >= b for a, b in zip(ks, ks[1:]))
        assert ks[0] == res.initial_degree

    def test_modes_recorded(self):
        g = GRAPHS["caterpillar"]
        res = run_mdst(g, greedy_hub_tree(g), config=MDSTConfig(mode="concurrent"))
        assert {r.mode for r in res.rounds} <= {"concurrent", "single"}
        assert res.rounds[0].mode == "concurrent"

    def test_single_mode_one_cutter(self):
        g = GRAPHS["gnp"]
        res = run_mdst(g, greedy_hub_tree(g), config=MDSTConfig(mode="single"))
        assert all(r.cutters == 1 for r in res.rounds)

    def test_summary_and_record(self):
        g = GRAPHS["k8"]
        res = run_mdst(g, greedy_hub_tree(g))
        assert "degree:" in res.summary()
        rec = res.to_record()
        assert rec["k_final"] == res.final_degree
        assert rec["messages"] == res.messages


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        g = GRAPHS["geo"]
        t0 = greedy_hub_tree(g)
        a = run_mdst(g, t0, delay=UniformDelay(), seed=5)
        b = run_mdst(g, t0, delay=UniformDelay(), seed=5)
        assert a.final_tree.edges() == b.final_tree.edges()
        assert a.messages == b.messages
        assert a.causal_time == b.causal_time

    def test_different_schedules_same_safety(self):
        g = GRAPHS["geo"]
        t0 = greedy_hub_tree(g)
        degrees = set()
        for seed in range(8):
            res = run_mdst(g, t0, delay=ExponentialDelay(), seed=seed)
            assert res.final_tree.is_spanning_tree_of(g)
            degrees.add(res.final_degree)
        # quality is schedule-independent up to +-1 in practice
        assert max(degrees) - min(degrees) <= 1


class TestEdgeCases:
    def test_single_node(self):
        g = Graph(nodes=[3])
        res = run_mdst(g)
        assert res.final_tree.n == 1
        assert res.messages == 0

    def test_two_nodes(self):
        g = path_graph(2)
        res = run_mdst(g)
        assert res.final_degree == 1
        assert res.messages == 0

    def test_empty_graph(self):
        with pytest.raises(ReproError):
            run_mdst(Graph())

    def test_disconnected(self):
        with pytest.raises(NotConnectedError):
            run_mdst(Graph(edges=[(0, 1), (2, 3)]))

    def test_bad_initial_tree(self):
        from repro.graphs import tree_from_edges

        g = ring(5)
        bad = tree_from_edges(0, [(0, 2), (2, 4), (4, 1), (1, 3)])
        with pytest.raises(ReproError):
            run_mdst(g, bad)

    def test_max_rounds_cap(self):
        g = complete(10)
        res = run_mdst(
            g, greedy_hub_tree(g), config=MDSTConfig(max_rounds=2)
        )
        # capped early: still a valid spanning tree, degree improved a bit
        assert res.final_tree.is_spanning_tree_of(g)
        assert res.num_rounds <= 2

    def test_initial_method_used_when_no_tree(self):
        g = GRAPHS["gnp"]
        res = run_mdst(g, initial_method="cdfs")
        assert res.initial_tree.is_spanning_tree_of(g)

    def test_no_polish_mode(self):
        g = GRAPHS["caterpillar"]
        res = run_mdst(
            g,
            greedy_hub_tree(g),
            config=MDSTConfig(mode="concurrent", polish=False),
        )
        assert res.final_tree.is_spanning_tree_of(g)
        assert all(r.mode == "concurrent" for r in res.rounds)


class TestWaveCoverage:
    """Figure 2: the BFS wave visits every edge a bounded number of times
    per round (paper: ≤ 2 per edge per round; ours: ≤ 4 with the
    always-reply repair)."""

    def test_wave_messages_per_round_bounded(self):
        g = GRAPHS["gnp"]
        res = run_mdst(g, greedy_hub_tree(g))
        by_type = res.report.by_type
        waves = by_type.get("BfsWave", 0) + by_type.get("Cut", 0)
        replies = by_type.get("CousinReply", 0)
        # every tree edge carries <= 1 wave/Cut, every non-tree edge
        # <= 2 waves + 2 replies, per round (+1: terminating sweep)
        rounds = res.num_rounds + 1
        assert waves <= (2 * (g.m - g.n + 1) + g.n - 1) * rounds
        assert replies <= 2 * (g.m - g.n + 1) * rounds


class TestExchangeSemantics:
    """Figure 1: one exchange deletes a max-degree edge, adds an outgoing
    edge, and the degree of the cutter decreases by exactly one."""

    def test_fig1_style_exchange(self):
        # hub 0 with children 1..4; extra edges allow one improvement
        g = Graph(
            edges=[(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (5, 6)]
        )
        from repro.graphs import tree_from_edges

        t0 = tree_from_edges(
            0, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6)]
        )
        assert t0.max_degree() == 4
        res = run_mdst(g, t0, check_invariants=True)
        assert res.final_degree == 3
        # the added edge must be (5,6), the only non-tree edge
        assert (5, 6) in res.final_tree.edges()
        # exactly one exchange committed
        assert sum(r.improved for r in res.rounds) == 1
