"""The fast bucket loop and the general loop are one semantics.

``Network.run`` drives unit-delay runs without trace, capture or
monitors through ``_drive_fast_bucket``; any monitor, capture or
scheduler policy routes a run through ``_drive_general``. Both derive
their delivery counters once at loop exit. Every report field must agree
between the two, also when a handler raises mid-run, and the general
loop's derived counters must equal a recount from a capture's rows under
every scheduler policy and churn plan.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro._mutation import mutated
from repro.algorithms.fr_local import make_fr_factory
from repro.analysis.batch import CellTemplate
from repro.analysis.executor import RunSpec
from repro.errors import ProtocolError
from repro.graphs.generators import make_family, path_graph
from repro.mdst.config import MDSTConfig
from repro.mdst.node import make_mdst_factory
from repro.sim import CausalCapture, Message, Network, Process, SimulationReport
from repro.sim.scheduler import scheduler_names
from repro.spanning import build_spanning_tree

FACTORIES = {
    "blin_butelle": lambda parents: make_mdst_factory(parents, MDSTConfig()),
    "fr_local": lambda parents: make_fr_factory(parents),
}


def _noop_monitor(net: Network) -> None:
    """Observes nothing; its presence forces the general drive loop."""


@pytest.fixture
def loops_used(monkeypatch):
    """Record which drive loop each run went through."""
    used: list[str] = []
    for name in ("_drive_fast_bucket", "_drive_general"):
        original = getattr(Network, name)

        def spy(self, stop_at, _original=original, _name=name):
            used.append(_name)
            return _original(self, stop_at)

        monkeypatch.setattr(Network, name, spy)
    return used


def _staggered(nodes: list[int]) -> dict[int, float]:
    """Mixed start times: integer and half-step wake-ups, plus one node
    waking long after the protocol has gone quiet (so the last handled
    event is a start, not a delivery)."""
    times = {u: float(u % 4) + (0.5 if u % 3 == 0 else 0.0) for u in nodes}
    times[nodes[-1]] = 10_000.0
    return times


def _both_loops(algorithm, graph, parents, start_times):
    nets = []
    for monitors in ((), (_noop_monitor,)):
        net = Network(
            graph,
            FACTORIES[algorithm](parents),
            start_times=start_times,
            monitors=monitors,
        )
        nets.append((net, net.run()))
    return nets


@pytest.mark.parametrize("algorithm", sorted(FACTORIES))
@pytest.mark.parametrize("family", ["gnp_sparse", "geometric", "pref_attach", "grid"])
@pytest.mark.parametrize("staggered", [False, True], ids=["sync", "staggered"])
def test_fast_and_general_loops_give_the_same_report(
    loops_used, algorithm, family, staggered
):
    graph = make_family(family, 24, 5)
    parents = build_spanning_tree(graph, method="echo", seed=3).tree.parent_map()
    start_times = _staggered(graph.nodes()) if staggered else None
    loops_used.clear()  # the startup tree ran networks of its own
    (fast_net, fast), (general_net, general) = _both_loops(
        algorithm, graph, parents, start_times
    )
    assert loops_used == ["_drive_fast_bucket", "_drive_general"]
    assert fast.total_messages > 0 and fast.by_type
    # every field, marks with their _messages_so_far included
    assert dataclasses.asdict(fast) == dataclasses.asdict(general)
    assert list(fast.by_type.items()) == list(general.by_type.items())
    assert any(
        isinstance(value, dict) and "_messages_so_far" in value
        for _, _, value in fast.marks
    )
    for net in (fast_net, general_net):
        assert net.in_flight == 0
        assert net.stats.deliveries == fast.total_messages
        assert net.processed == fast.events_processed
    assert fast_net._clocks == general_net._clocks
    if staggered:
        # the late wake-up is handled, but sim_time is the last delivery's
        assert fast.sim_time < 10_000.0


@dataclasses.dataclass(frozen=True, slots=True)
class RelayPing(Message):
    hops: int


class Relay(Process):
    """Floods pings outward; node 2 raises on its third delivery."""

    def on_start(self) -> None:
        for v in self.neighbors:
            self.send(v, RelayPing(hops=0))

    def on_message(self, sender: int, msg: Message) -> None:
        self.seen = getattr(self, "seen", 0) + 1
        if self.node_id == 2 and self.seen == 3:
            raise RuntimeError("handler failure")
        if msg.hops < 6:
            for v in self.neighbors:
                self.send(v, RelayPing(hops=msg.hops + 1))


def test_a_raising_handler_leaves_both_loops_consistent(loops_used):
    runs = []
    for monitors in ((), (_noop_monitor,)):
        net = Network(path_graph(5), Relay, start_times={4: 1.5}, monitors=monitors)
        with pytest.raises(RuntimeError, match="handler failure"):
            net.run()
        report = SimulationReport.from_stats(net.stats, net.processed, quiescent=False)
        pending = len(net.queue)
        runs.append((net, report, pending))
    assert loops_used == ["_drive_fast_bucket", "_drive_general"]
    (fast_net, fast, fast_pending), (general_net, general, general_pending) = runs
    assert dataclasses.asdict(fast) == dataclasses.asdict(general)
    assert fast_pending == general_pending
    for net, report, pending in runs:
        # the failing delivery counts as delivered; everything still
        # queued is an undelivered message (all starts were handled)
        assert net.stats.deliveries + net.in_flight == report.total_messages
        assert net.in_flight == pending > 0
        assert report.causal_time == max(net._clocks)
    assert fast_net._clocks == general_net._clocks


def _captured_network(spec: RunSpec):
    """Build *spec*'s protocol network with a capture attached and drive
    it; return the network, its report and what the run raised. A run
    that raises still gets the report its counters settle into."""
    template = CellTemplate(spec)
    graph, startup, _, plan = template.setup(spec.seed)
    cap = CausalCapture()
    net, _finalize = template.algorithm.build(
        graph,
        startup.tree,
        mode=spec.mode,
        max_rounds=spec.max_rounds,
        seed=spec.seed,
        delay=template.delay,
        faults=plan or None,
        scheduler=template.scheduler,
        causal=cap,
    )
    try:
        return net, cap, net.run(), None
    except ProtocolError as exc:
        report = SimulationReport.from_stats(net.stats, net.processed, quiescent=False)
        return net, cap, report, exc


def _assert_counters_equal_a_recount(net, cap, report) -> None:
    delivered = [row for row in cap.rows if row.kind == "deliver"]
    assert delivered, "the run delivered nothing"
    assert report.events_processed == net.processed == len(cap.rows)
    assert net.stats.deliveries == len(delivered)
    assert report.causal_time == max(row.depth for row in delivered)
    assert report.sim_time == max(row.time for row in delivered)
    assert net.in_flight == len(cap._pending)


@pytest.mark.parametrize("algorithm", sorted(FACTORIES))
@pytest.mark.parametrize("churn", ["none", "restart_one", "restart_wave"])
@pytest.mark.parametrize("scheduler", [*scheduler_names(), "replay:lifo:3.1.4.1.5"])
def test_general_loop_counters_equal_a_recount(algorithm, churn, scheduler):
    spec = RunSpec(
        family="gnp_sparse", n=8, seed=3, initial_method="random",
        algorithm=algorithm, scheduler=scheduler, churn=churn,
    )
    net, cap, report, raised = _captured_network(spec)
    assert raised is None
    _assert_counters_equal_a_recount(net, cap, report)


def test_counters_equal_a_recount_when_a_handler_raises():
    spec = RunSpec(
        family="gnp_sparse", n=6, seed=2, initial_method="random",
        churn="restart_one", scheduler="replay",
    )
    with mutated("drop_churn_rejoin"):
        net, cap, report, raised = _captured_network(spec)
    assert raised is not None
    _assert_counters_equal_a_recount(net, cap, report)


def test_counters_equal_a_recount_in_a_stalled_run():
    spec = RunSpec(
        family="gnp_sparse", n=8, seed=1, initial_method="random",
        churn="churn_storm",
    )
    assert CellTemplate(spec).run(spec.seed).outcome == "stalled"
    net, cap, report, raised = _captured_network(spec)
    assert raised is None
    _assert_counters_equal_a_recount(net, cap, report)
