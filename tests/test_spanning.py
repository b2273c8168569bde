"""Tests for the spanning-tree substrate (echo, DFS token, GHS, refs)."""

import pytest

from repro.errors import NotConnectedError, ReproError, StallError
from repro.graphs import (
    Graph,
    complete,
    gnp_connected,
    grid,
    hypercube,
    lollipop,
    path_graph,
    random_geometric,
    ring,
    star,
    wheel,
)
from repro.sim import ExponentialDelay, PerLinkDelay, Process, UniformDelay
from repro.spanning import (
    bfs_tree,
    build_spanning_tree,
    dfs_tree,
    greedy_hub_tree,
    kruskal_mst,
    random_spanning_tree,
)

GRAPHS = {
    "ring8": ring(8),
    "path6": path_graph(6),
    "k6": complete(6),
    "grid3x4": grid(3, 4),
    "wheel7": wheel(7),
    "cube3": hypercube(3),
    "star9": star(9),
    "lollipop": lollipop(4, 3),
    "gnp": gnp_connected(18, 0.25, seed=5),
    "geo": random_geometric(16, 0.45, seed=6),
}


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("method", ["echo", "dfs", "ghs"])
class TestDistributedMethods:
    def test_produces_spanning_tree(self, gname, method):
        g = GRAPHS[gname]
        out = build_spanning_tree(g, method=method)
        assert out.tree.is_spanning_tree_of(g)
        assert out.report is not None and out.report.quiescent

    def test_robust_to_delays(self, gname, method):
        g = GRAPHS[gname]
        for delay in (UniformDelay(), ExponentialDelay(), PerLinkDelay()):
            out = build_spanning_tree(g, method=method, delay=delay, seed=11)
            assert out.tree.is_spanning_tree_of(g)


class TestEcho:
    def test_unit_delay_gives_bfs_depths(self):
        g = grid(4, 4)
        out = build_spanning_tree(g, method="echo", root=0)
        from repro.graphs import shortest_path_lengths

        dist = shortest_path_lengths(g, 0)
        for u in g.nodes():
            assert out.tree.depth(u) == dist[u]

    def test_message_bound(self):
        # <= 2 WAVE + 2 ECHO per edge + n-1 DONE
        g = gnp_connected(20, 0.3, seed=1)
        out = build_spanning_tree(g, method="echo")
        assert out.report.total_messages <= 4 * g.m + (g.n - 1)

    def test_root_choice(self):
        g = ring(6)
        out = build_spanning_tree(g, method="echo", root=3)
        assert out.tree.root == 3


class TestDfsToken:
    def test_message_bound(self):
        g = gnp_connected(20, 0.3, seed=2)
        out = build_spanning_tree(g, method="dfs")
        # <= 2 transits per edge (TOKEN+BACK) + n-1 DONE
        assert out.report.total_messages <= 4 * g.m + (g.n - 1)

    def test_tree_is_dfs_like(self):
        # on a ring, a DFS tree from 0 is the Hamiltonian path: max degree 2
        out = build_spanning_tree(ring(9), method="dfs")
        assert out.tree.max_degree() == 2

    def test_low_degree_on_complete(self):
        # DFS of K_n is a path
        out = build_spanning_tree(complete(7), method="dfs")
        assert out.tree.max_degree() == 2


class TestGhs:
    @pytest.mark.parametrize("gname", sorted(GRAPHS))
    def test_matches_kruskal(self, gname):
        g = GRAPHS[gname]
        out = build_spanning_tree(g, method="ghs")
        expected = kruskal_mst(g)
        assert sorted(out.tree.edges()) == sorted(expected.edges())

    def test_weighted_graph(self):
        g = ring(6)
        # make edge (0,5) very expensive: MST = the path 0..5
        g.set_weight(0, 5, 100.0)
        out = build_spanning_tree(g, method="ghs")
        assert (0, 5) not in out.tree.edges()

    def test_weighted_matches_kruskal_random_weights(self):
        from repro.rng import substream

        rng = substream(3, "wtest")
        g = gnp_connected(16, 0.35, seed=9)
        for u, v in g.edges():
            g.set_weight(u, v, float(rng.integers(1, 10)))
        out = build_spanning_tree(g, method="ghs", delay=UniformDelay(), seed=4)
        assert sorted(out.tree.edges()) == sorted(kruskal_mst(g).edges())

    def test_two_nodes(self):
        g = path_graph(2)
        out = build_spanning_tree(g, method="ghs")
        assert out.tree.n == 2

    def test_message_complexity_reasonable(self):
        import math

        g = gnp_connected(24, 0.3, seed=8)
        out = build_spanning_tree(g, method="ghs")
        # classic bound: 5 n log2 n + 2 m, generous constant margin
        bound = 5 * g.n * max(1, math.ceil(math.log2(g.n))) + 4 * g.m + 2 * g.n
        assert out.report.total_messages <= bound


class TestCentralized:
    def test_bfs_tree(self):
        g = grid(3, 3)
        t = bfs_tree(g)
        assert t.is_spanning_tree_of(g)
        assert t.root == 0

    def test_dfs_tree_low_degree_on_complete(self):
        t = dfs_tree(complete(8))
        assert t.max_degree() == 2

    def test_greedy_hub_is_bad(self):
        g = complete(10)
        t = greedy_hub_tree(g)
        assert t.is_spanning_tree_of(g)
        assert t.max_degree() == 9  # star from the hub

    def test_random_spanning_tree_reproducible(self):
        g = gnp_connected(15, 0.4, seed=3)
        a = random_spanning_tree(g, seed=1)
        b = random_spanning_tree(g, seed=1)
        assert sorted(a.edges()) == sorted(b.edges())
        assert a.is_spanning_tree_of(g)

    def test_kruskal_respects_weights(self):
        g = ring(5)
        g.set_weight(0, 4, 50.0)
        t = kruskal_mst(g)
        assert (0, 4) not in t.edges()

    def test_disconnected_rejected(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        with pytest.raises(NotConnectedError):
            bfs_tree(g)


class TestProvider:
    def test_unknown_method(self):
        with pytest.raises(ReproError):
            build_spanning_tree(ring(4), method="magic")

    def test_empty_graph(self):
        with pytest.raises(ReproError):
            build_spanning_tree(Graph())

    def test_disconnected(self):
        with pytest.raises(NotConnectedError):
            build_spanning_tree(Graph(edges=[(0, 1), (2, 3)]))

    def test_startup_that_never_halts_is_a_stall(self, monkeypatch):
        """The startup protocol must terminate by process (§3.1): nodes
        that go quiet without halting fail the read-back after the run
        with StallError, not a plain ProtocolError."""
        import repro.spanning.provider as provider

        class Mute(Process):
            def on_message(self, sender, msg):  # pragma: no cover - nothing is sent
                raise AssertionError("no message expected")

        monkeypatch.setattr(provider, "make_echo_factory", lambda initiator: Mute)
        with pytest.raises(StallError, match="never terminated"):
            build_spanning_tree(ring(4), method="echo")

    def test_echo_startup_on_unit_delays_stays_on_the_fast_loop(self, monkeypatch):
        from repro.sim.network import Network

        general = Network._drive_general
        calls = []

        def spy(net, stop_at):
            calls.append(stop_at)
            return general(net, stop_at)

        monkeypatch.setattr(Network, "_drive_general", spy)
        g = gnp_connected(16, 0.3, seed=1)
        assert build_spanning_tree(g, method="echo").tree.is_spanning_tree_of(g)
        assert calls == []
        # the spy does see a run that needs the general loop
        build_spanning_tree(g, method="echo", delay=UniformDelay(), seed=1)
        assert len(calls) == 1

    def test_single_node(self):
        g = Graph(nodes=[4])
        out = build_spanning_tree(g)
        assert out.tree.n == 1 and out.tree.root == 4
        assert out.report is None

    @pytest.mark.parametrize(
        "method", ["bfs", "cdfs", "greedy_hub", "random", "mst"]
    )
    def test_centralized_methods(self, method):
        g = gnp_connected(12, 0.4, seed=7)
        out = build_spanning_tree(g, method=method, seed=2)
        assert out.tree.is_spanning_tree_of(g)
        assert out.report is None
        assert out.degree == out.tree.max_degree()
