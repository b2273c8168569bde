"""The fast bucket loop and the general loop are one semantics.

``Network.run`` drives unit-delay runs without trace, capture or
monitors through ``_drive_fast_bucket``, which derives its delivery
counters once at loop exit; any monitor routes the same run through
``_drive_general``, which keeps them per delivery. Every report field
must agree between the two, also when a handler raises mid-run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.algorithms.fr_local import make_fr_factory
from repro.graphs.generators import make_family, path_graph
from repro.mdst.config import MDSTConfig
from repro.mdst.node import make_mdst_factory
from repro.sim import Message, Network, Process, SimulationReport
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
