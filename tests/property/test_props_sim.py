"""Property-based tests of the simulator substrate."""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import gnp_connected
from repro.sim import (
    EventKind,
    EventQueue,
    ExponentialDelay,
    Message,
    Network,
    Process,
    UniformDelay,
)


@dataclass(frozen=True, slots=True)
class Seq(Message):
    value: int


class Burster(Process):
    """Node 0 sends a numbered burst to every neighbor."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.received: list[tuple[int, int]] = []

    def on_start(self):
        if self.node_id == 0:
            for i in range(20):
                for v in self.neighbors:
                    self.send(v, Seq(value=i))
        self.halt()

    def on_message(self, sender, msg):
        self.received.append((sender, msg.value))


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_pop_order_is_sorted(self, times):
        q = EventQueue()
        for t in times:
            q.push_raw(t, EventKind.START, target=0)
        popped = [q.pop_raw()[0] for _ in range(len(times))]
        assert popped == sorted(popped)

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_equal_times_fifo(self, targets):
        q = EventQueue()
        for tgt in targets:
            q.push_raw(1.0, EventKind.START, target=tgt)
        assert [q.pop_raw()[3] for _ in targets] == targets


class TestNetworkProperties:
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=1000),
        st.sampled_from([UniformDelay, ExponentialDelay]),
    )
    @settings(max_examples=30, deadline=None)
    def test_fifo_per_link_any_delay(self, n, seed, delay_cls):
        g = gnp_connected(n, 0.5, seed=seed)
        net = Network(g, Burster, delay=delay_cls(), seed=seed)
        net.run()
        for u in g.nodes():
            proc = net.node(u)
            per_sender: dict[int, list[int]] = {}
            for s, v in proc.received:
                per_sender.setdefault(s, []).append(v)
            for vals in per_sender.values():
                assert vals == sorted(vals)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_conservation_of_messages(self, n, seed):
        g = gnp_connected(n, 0.4, seed=seed)
        net = Network(g, Burster, delay=UniformDelay(), seed=seed)
        report = net.run()
        delivered = sum(len(net.node(u).received) for u in g.nodes())
        assert delivered == report.total_messages
        assert net.in_flight == 0
