"""Determinism properties of the exploration substrate: every named
fault plan and scheduler policy must be a pure function of ``(n, seed)``
— same inputs, identical plan / identical schedule. The shrinker and the
regression corpus replay depend on it."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import gnp_connected
from repro.sim import (
    FAULT_PLANS,
    SCHEDULERS,
    EventKind,
    Network,
    PolicyQueue,
    fault_plan_from_name,
    scheduler_from_name,
)
from repro.sim.messages import Message
from repro.sim.node import Process


class Tick(Message):
    pass


class Chatter(Process):
    """Every node pings all neighbors at start and echoes the first ping
    back — enough traffic that schedules can genuinely diverge."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.log: list[int] = []
        self.replied = False

    def on_start(self):
        for v in self.neighbors:
            self.send(v, Tick())
        self.halt()

    def on_message(self, sender, msg):
        self.log.append(sender)
        if not self.replied:
            self.replied = True
            self.send(sender, Tick())


POLICIES = [n for n in sorted(SCHEDULERS) if n != "none"]


class TestFaultPlanDeterminism:
    @given(
        name=st.sampled_from(sorted(FAULT_PLANS)),
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_inputs_same_plan(self, name, n, seed):
        a = fault_plan_from_name(name, n, seed)
        b = fault_plan_from_name(name, n, seed)
        # identical victim sets...
        assert sorted(a) == sorted(b)
        # ...with identical wrapper kinds per victim (closures compare by
        # the factory that built them)
        for node in a:
            assert a[node].__qualname__ == b[node].__qualname__
        assert all(0 <= node < n for node in a)


class TestSchedulerDeterminism:
    @given(
        name=st.sampled_from(POLICIES),
        n=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=2**31),
        heads=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 10**6),
                    st.integers(0, 31),
                    st.integers(-1, 31),
                ),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_inputs_same_choices(self, name, n, seed, heads):
        """Feeding two same-named policies the same (n, seed) binding and
        the same stream of deliverable-head views must yield the same
        choice sequence — and every choice must be admissible."""
        a = scheduler_from_name(name)
        b = scheduler_from_name(name)
        a.bind(seed, n)
        b.bind(seed, n)
        for view in heads:
            view = tuple(sorted(view))
            pick_a = a.choose(view)
            pick_b = b.choose(view)
            assert pick_a == pick_b
            assert 0 <= pick_a < len(view)

    @given(
        name=st.sampled_from(POLICIES),
        n=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_inputs_same_schedule_end_to_end(self, name, n, seed):
        """Two full simulations under the same named policy and seed must
        process identical event sequences (observed through every node's
        delivery log)."""
        graph = gnp_connected(n, 0.5, seed=seed % 50)

        def run():
            net = Network(
                graph, Chatter, seed=seed, scheduler=scheduler_from_name(name)
            )
            report = net.run()
            return (
                report.events_processed,
                {u: tuple(p.log) for u, p in net.processes.items()},
            )

        assert run() == run()

    @given(
        name=st.sampled_from(POLICIES),
        pushes=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=1,
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_policy_queue_preserves_per_link_fifo(self, name, pushes, seed):
        """Whatever the policy does, two messages on the same directed
        link must pop in push order, and every pushed event must pop
        exactly once."""
        policy = scheduler_from_name(name)
        policy.bind(seed, 6)
        queue = PolicyQueue(policy)
        for i, (src, dst) in enumerate(pushes):
            queue.push_raw(0.0, EventKind.DELIVER, dst, src, i, 1)
        seen: dict[tuple[int, int], int] = {}
        popped = []
        while queue:
            _t, _seq, _kind, target, sender, payload, _d = queue.pop_raw()
            link = (sender, target)
            last = seen.get(link, -1)
            assert payload > last, "per-link FIFO violated"
            seen[link] = payload
            popped.append(payload)
        assert sorted(popped) == list(range(len(pushes)))
