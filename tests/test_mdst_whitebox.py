"""White-box tests of MDST protocol internals: handshake ordering,
identifier-space robustness, mark bookkeeping, and stress scenarios."""

import pytest

from repro.errors import ProtocolError
from repro.graphs import (
    complete,
    complete_bipartite,
    gnp_connected,
    lollipop,
    ring,
    torus,
)
from repro.mdst import MDSTConfig, run_mdst
from repro.protocol.exchange import ExchangeMixin
from repro.sim import (
    ExponentialDelay,
    TraceRecorder,
    UniformDelay,
)
from repro.spanning import build_spanning_tree, greedy_hub_tree


class TestNonContiguousIdentities:
    """The paper only assumes *distinct* identities — nothing else."""

    @pytest.mark.parametrize("factor,offset", [(7, 1000), (13, 5), (3, 0)])
    def test_protocol_handles_arbitrary_ids(self, factor, offset):
        base = gnp_connected(18, 0.3, seed=2)
        g = base.relabeled({u: offset + factor * u for u in base.nodes()})
        t0 = greedy_hub_tree(g)
        res = run_mdst(g, t0, check_invariants=True)
        assert res.final_tree.is_spanning_tree_of(g)
        assert res.final_degree <= t0.max_degree()

    def test_relabeling_invariance_of_quality(self):
        """Relabeling cannot change the achievable degree (only the
        tie-breaking path there — final degree may differ by at most the
        usual local-optimum wobble of one)."""
        base = gnp_connected(16, 0.35, seed=4)
        t0 = greedy_hub_tree(base)
        res_a = run_mdst(base, t0)
        mapping = {u: 500 - 3 * u for u in base.nodes()}
        g2 = base.relabeled(mapping)
        t2 = greedy_hub_tree(g2)
        res_b = run_mdst(g2, t2)
        assert abs(res_a.final_degree - res_b.final_degree) <= 1

    @pytest.mark.parametrize("method", ["echo", "dfs", "ghs", "election"])
    def test_spanning_constructions_handle_arbitrary_ids(self, method):
        base = gnp_connected(14, 0.35, seed=6)
        g = base.relabeled({u: 42 + 11 * u for u in base.nodes()})
        out = build_spanning_tree(g, method=method, seed=1)
        assert out.tree.is_spanning_tree_of(g)


class TestHandshakeOrdering:
    """The repairs rely on FIFO ordering of specific message pairs."""

    def test_moveroot_ack_precedes_cut_in_trace(self):
        g = complete(8)
        tr = TraceRecorder(capacity=10**6)
        run_mdst(g, greedy_hub_tree(g), trace=tr)
        # for every (src, dst): MoveRootAck send must precede any Cut send
        # issued by the same node to the same target within a round
        per_link: dict[tuple[int, int], list[str]] = {}
        for rec in tr.records:
            if rec.action != "send" or rec.message is None:
                continue
            name = type(rec.message).__name__
            if name in ("MoveRootAck", "Cut"):
                per_link.setdefault((rec.src, rec.dst), []).append(name)
        for (src, dst), names in per_link.items():
            if "MoveRootAck" in names and "Cut" in names:
                assert names.index("MoveRootAck") < names.index("Cut"), (src, dst)

    def test_childack_precedes_exchange_done(self):
        g = complete(8)
        tr = TraceRecorder(capacity=10**6)
        run_mdst(g, greedy_hub_tree(g), trace=tr)
        acks = [r.time for r in tr.records if r.action == "deliver"
                and type(r.message).__name__ == "ChildAck"]
        dones = [r.time for r in tr.records if r.action == "send"
                 and type(r.message).__name__ == "ExchangeDone"]
        assert len(acks) == len(dones)
        # each exchange's done is sent only after its ack arrived
        for a, d in zip(sorted(acks), sorted(dones)):
            assert a <= d

    def test_one_exchange_per_cutter_per_round(self):
        g = gnp_connected(24, 0.25, seed=8)
        res = run_mdst(g, greedy_hub_tree(g))
        for r in res.rounds:
            assert r.improved <= r.cutters


class TestStressTopologies:
    @pytest.mark.parametrize(
        "g",
        [
            torus(4, 4),
            lollipop(6, 5),
            complete_bipartite(3, 12),
            ring(24),
        ],
        ids=["torus", "lollipop", "bipartite", "bigring"],
    )
    def test_structured_topologies(self, g):
        t0 = greedy_hub_tree(g)
        for mode in ("concurrent", "single"):
            res = run_mdst(
                g, t0, config=MDSTConfig(mode=mode), check_invariants=True
            )
            assert res.final_tree.is_spanning_tree_of(g)

    def test_dense_async_stress(self):
        """Dense graph + heavy-tailed delays + many seeds: the strongest
        reordering pressure we can apply in-tree."""
        g = complete(12)
        t0 = greedy_hub_tree(g)
        for seed in range(10):
            res = run_mdst(
                g,
                t0,
                delay=ExponentialDelay(mean=2.0),
                seed=seed,
                check_invariants=True,
            )
            assert res.final_degree == 2  # K_n always reaches the chain

    def test_repeated_runs_share_no_state(self):
        """Factories must not leak state across Network instances."""
        g = gnp_connected(16, 0.3, seed=1)
        t0 = greedy_hub_tree(g)
        first = run_mdst(g, t0, delay=UniformDelay(), seed=3)
        second = run_mdst(g, t0, delay=UniformDelay(), seed=3)
        assert first.final_tree.edges() == second.final_tree.edges()
        assert first.report.by_type == second.report.by_type


class TestMarks:
    def test_round_marks_are_paired_and_ordered(self):
        g = gnp_connected(20, 0.25, seed=5)
        res = run_mdst(g, greedy_hub_tree(g))
        starts = [v for _t, l, v in res.report.marks if l == "round"]
        ends = [v for _t, l, v in res.report.marks if l == "round_end"]
        assert len(starts) == len(ends) == res.num_rounds
        assert [s["index"] for s in starts] == sorted(s["index"] for s in starts)
        assert {e["index"] for e in ends} == {s["index"] for s in starts}

    def test_final_k_marked_on_termination(self):
        g = ring(8)
        res = run_mdst(g, build_spanning_tree(g, method="cdfs").tree)
        labels = [l for _t, l, _v in res.report.marks]
        assert "final_k" in labels

    def test_capped_run_marks(self):
        g = complete(10)
        res = run_mdst(g, greedy_hub_tree(g), config=MDSTConfig(max_rounds=1))
        labels = [l for _t, l, _v in res.report.marks]
        assert "capped" in labels


class TestErrorPaths:
    def test_update_from_non_parent_raises(self):
        """Direct white-box poke: feeding Update from a non-parent must
        be rejected loudly."""
        from repro.mdst.messages import Update
        from repro.mdst.node import MDSTProcess
        from repro.mdst.config import MDSTConfig as Cfg
        from repro.sim import NodeContext

        ctx = NodeContext(node_id=5, neighbors=(1, 2, 3))
        ctx._send = lambda *a: None
        ctx._now = lambda: 0.0
        ctx._mark = lambda *a, **k: None
        proc = MDSTProcess(ctx, parent=1, children={2}, config=Cfg())
        with pytest.raises(ProtocolError):
            proc.on_message(3, Update(local=5, remote=2))

    def test_stray_child_ack_raises(self):
        from repro.mdst.messages import ChildAck
        from repro.mdst.node import MDSTProcess
        from repro.mdst.config import MDSTConfig as Cfg
        from repro.sim import NodeContext

        ctx = NodeContext(node_id=5, neighbors=(1, 2))
        ctx._send = lambda *a: None
        ctx._now = lambda: 0.0
        ctx._mark = lambda *a, **k: None
        proc = MDSTProcess(ctx, parent=1, children=set(), config=Cfg())
        with pytest.raises(ProtocolError):
            proc.on_message(2, ChildAck())

    def test_search_from_non_parent_raises(self):
        from repro.mdst.messages import Search
        from repro.mdst.node import MDSTProcess
        from repro.mdst.config import MDSTConfig as Cfg
        from repro.sim import NodeContext

        ctx = NodeContext(node_id=5, neighbors=(1, 2))
        ctx._send = lambda *a: None
        ctx._now = lambda: 0.0
        ctx._mark = lambda *a, **k: None
        proc = MDSTProcess(ctx, parent=1, children=set(), config=Cfg())
        with pytest.raises(ProtocolError):
            proc.on_message(2, Search(reset=False, single=False))


@pytest.mark.parametrize("algorithm", ["blin_butelle", "fr_local"])
def test_forwarding_with_no_parent_raises_protocol_error(algorithm):
    """A non-coordinator that has no parent (e.g. one whose parent
    pointer is mid-handoff) cannot forward an ImproveReport: that is a
    protocol violation, not an assertion (``python -O`` strips asserts,
    and the exploration probe only captures library errors)."""
    from repro.algorithms.fr_local import FRProcess
    from repro.mdst.messages import ImproveReport
    from repro.mdst.node import MDSTProcess
    from repro.sim import NodeContext

    ctx = NodeContext(node_id=5, neighbors=(1, 2))
    ctx._send = lambda *a: None
    ctx._now = lambda: 0.0
    ctx._mark = lambda *a, **k: None
    if algorithm == "blin_butelle":
        proc = MDSTProcess(ctx, parent=1, children={2}, config=MDSTConfig())
    else:
        proc = FRProcess(ctx, parent=1, children={2})
    proc.parent = None
    with pytest.raises(ProtocolError, match="5: ImproveReport from 2"):
        proc.on_message(2, ImproveReport(improved=True))


class TestCutterCrossReplyRace:
    """Regression: a cutter must not finish its round while its own
    CousinReply is still in flight — the reply would land in the next
    round's fresh state and raise "unexpected CousinReply".

    Found by hypothesis under exponential delays; the instances below
    reproduced it deterministically before the `_maybe_cutter_choose`
    gate (cut-children echoes AND the cutter's own cross replies must
    both drain before choosing).
    """

    @pytest.mark.parametrize("sched_seed", [1, 2, 15, 19])
    def test_late_cousin_reply_to_round_root(self, sched_seed):
        from repro.spanning import random_spanning_tree

        graph = gnp_connected(6, 0.3, seed=3)
        tree = random_spanning_tree(graph, seed=0)
        res = run_mdst(
            graph,
            tree,
            config=MDSTConfig(mode="concurrent"),
            delay=ExponentialDelay(),
            seed=sched_seed,
            check_invariants=True,
        )
        assert res.final_tree.is_spanning_tree_of(graph)
        assert res.final_degree <= res.initial_degree
        assert res.report.quiescent


class TestExchangeWithoutParent:
    """Under churn a node can receive ChildAck / FlipBack after it lost
    its parent. That is a protocol failure the fuzzer records as a
    finding, so it must surface as ProtocolError (not a bare assert,
    which ``probe_cell`` does not convert and ``python -O`` strips)."""

    class Host(ExchangeMixin):
        def __init__(self):
            self.node_id = 3
            self.parent = None
            self.children = {5}
            self.pending_attach = 5
            self.got_cut = False
            self.sent = []

        def send(self, dst, msg):
            self.sent.append((dst, msg))

    @pytest.mark.parametrize("handler", ["_on_child_ack", "_on_flip_back"])
    def test_handler_raises_protocol_error_naming_node_and_sender(self, handler):
        host = self.Host()
        with pytest.raises(ProtocolError, match=r"^3: .* from 5 but no parent"):
            getattr(host, handler)(5)
        assert host.sent == []
