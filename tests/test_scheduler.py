"""Scheduler-policy subsystem: policies, the policy queue, and the
network integration (the exploration PR's tentpole axis)."""

import numpy as np
import pytest

from repro.analysis.axes import AXIS
from repro.errors import SchedulingError
from repro.graphs.generators import gnp_connected, make_family
from repro.mdst.algorithm import run_mdst
from repro.mdst.config import MDSTConfig
from repro.sim import (
    NO_SCHEDULER,
    SCHEDULERS,
    EventKind,
    FifoScheduler,
    LifoScheduler,
    Network,
    PolicyQueue,
    RandomScheduler,
    ReplayScheduler,
    SchedulerPolicy,
    StarveNodeScheduler,
    scheduler_from_name,
)
from repro.sim.delays import ExponentialDelay, UniformDelay
from repro.sim.messages import Message
from repro.sim.node import Process
from repro.sim.scheduler import (
    REPLAY_PREFIX_MAX,
    is_replay_spec,
    parse_replay_spec,
    replay_spec,
)
from repro.spanning.provider import build_spanning_tree


class Ping(Message):
    pass


class TestRegistry:
    def test_names_include_none_and_builtins(self):
        assert NO_SCHEDULER in SCHEDULERS
        assert {"fifo", "lifo", "random", "starve"} <= set(SCHEDULERS)

    def test_none_maps_to_no_policy(self):
        assert scheduler_from_name(NO_SCHEDULER) is None

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            scheduler_from_name("typo")

    def test_a_table_entry_is_a_policy_on_the_axis(self, monkeypatch):
        class Custom(FifoScheduler):
            pass

        monkeypatch.setitem(SCHEDULERS, "custom_test", Custom)
        assert isinstance(scheduler_from_name("custom_test"), Custom)
        assert AXIS["scheduler"].check("custom_test") == "custom_test"


class TestPolicies:
    HEADS = ((3, 1, 0), (7, 2, 1), (9, 0, -1))

    def test_fifo_picks_oldest(self):
        assert FifoScheduler().choose(self.HEADS) == 0

    def test_lifo_picks_newest(self):
        assert LifoScheduler().choose(self.HEADS) == 2

    def test_starve_defers_victim(self):
        pol = StarveNodeScheduler()
        pol.victim = 1
        assert pol.choose(self.HEADS) == 1  # first head targets victim 1
        pol.victim = 2
        assert pol.choose(self.HEADS) == 0
        # only victim-targeted heads left: oldest first
        pol.victim = 5
        assert pol.choose(((4, 5, 0), (6, 5, 1))) == 0

    def test_random_is_deterministic_in_seed_and_n(self):
        a, b = RandomScheduler(), RandomScheduler()
        a.bind(7, 10)
        b.bind(7, 10)
        picks_a = [a.choose(self.HEADS) for _ in range(50)]
        picks_b = [b.choose(self.HEADS) for _ in range(50)]
        assert picks_a == picks_b
        c = RandomScheduler()
        c.bind(8, 10)
        assert [c.choose(self.HEADS) for _ in range(50)] != picks_a

    def test_unbound_streams_are_pinned(self):
        """Unbound policies and delay models draw the seed-0 stream on
        first use, exactly as when they built it eagerly at construction
        (the figures are that eager stream's output)."""
        r = RandomScheduler()
        assert [r.choose((None,) * k) for k in (2, 3, 5, 7, 11, 13)] == [
            0, 1, 3, 4, 2, 9,
        ]
        replay = ReplayScheduler((1,), "random")
        assert [replay.choose((None,) * k) for k in (2, 3, 5, 7, 11)] == [
            1, 1, 2, 4, 7,
        ]
        u = UniformDelay()
        assert [u.sample(0, 1) for _ in range(3)] == [
            0.4177026625079032, 0.18501019892564433, 0.5113385669400842,
        ]
        assert [UniformDelay(0.5, 2.0).sample(0, 1)] == [1.8163880923155995]
        e = ExponentialDelay()
        assert [e.sample(0, 1) for _ in range(3)] == [
            0.019770159515741625, 0.40337283056813145, 0.8731639432779281,
        ]
        assert [ExponentialDelay(2.0).sample(0, 1)] == [1.7962464156764468]

    def test_construction_builds_no_stream(self):
        """Only ``bind`` (or a first unbound draw) creates a generator,
        so constructing a model to validate its name is free."""
        models = [RandomScheduler(), UniformDelay(), ExponentialDelay()]
        assert all(m._rng is None for m in models)
        replay = scheduler_from_name("replay:random:1")
        assert replay._tail._rng is None
        replay.bind(3, 8)
        assert replay._tail._rng is not None

    def test_starve_victim_deterministic_and_in_range(self):
        for n in (1, 2, 7):
            for seed in (0, 3):
                a, b = StarveNodeScheduler(), StarveNodeScheduler()
                a.bind(seed, n)
                b.bind(seed, n)
                assert a.victim == b.victim
                assert 0 <= a.victim < n


class TestReplayScheduler:
    HEADS = ((3, 1, 0), (7, 2, 1), (9, 0, -1))

    def test_prefix_choices_are_respected(self):
        pol = ReplayScheduler((0, 2, 1), "fifo")
        pol.bind(0, 4)
        assert [pol.choose(self.HEADS) for _ in range(3)] == [0, 2, 1]

    def test_out_of_range_choices_reduce_modulo_head_count(self):
        # every int denotes an admissible pick — mutation engines never
        # have to validate against the live head count
        pol = ReplayScheduler((3, 7, 100), "fifo")
        pol.bind(0, 4)
        assert [pol.choose(self.HEADS) for _ in range(3)] == [0, 1, 1]

    def test_fallback_takes_over_after_the_prefix(self):
        pol = ReplayScheduler((1,), "lifo")
        pol.bind(0, 4)
        assert pol.choose(self.HEADS) == 1  # recorded head
        assert pol.choose(self.HEADS) == 2  # lifo tail: newest

    def test_bind_resets_the_cursor(self):
        pol = ReplayScheduler((2, 0), "fifo")
        pol.bind(5, 4)
        first = [pol.choose(self.HEADS) for _ in range(4)]
        pol.bind(5, 4)
        assert [pol.choose(self.HEADS) for _ in range(4)] == first

    def test_deterministic_in_prefix_fallback_seed_n(self):
        a = ReplayScheduler((4, 4), "random")
        b = ReplayScheduler((4, 4), "random")
        a.bind(9, 6)
        b.bind(9, 6)
        picks_a = [a.choose(self.HEADS) for _ in range(30)]
        picks_b = [b.choose(self.HEADS) for _ in range(30)]
        assert picks_a == picks_b

    def test_constructor_rejects_bad_prefixes_and_fallbacks(self):
        with pytest.raises(ValueError, match="unknown replay fallback"):
            ReplayScheduler((), "typo")
        with pytest.raises(ValueError, match="unknown replay fallback"):
            ReplayScheduler((), NO_SCHEDULER)
        with pytest.raises(ValueError, match="non-negative"):
            ReplayScheduler((3, -1), "fifo")
        with pytest.raises(ValueError, match="longer than"):
            ReplayScheduler((0,) * (REPLAY_PREFIX_MAX + 1), "fifo")

    def test_spec_round_trips(self):
        for prefix, fallback in (
            ((), "random"),
            ((), "lifo"),
            ((3, 1, 0), "fifo"),
            ((0, 64, 7), "starve"),
        ):
            spec = replay_spec(prefix, fallback)
            assert is_replay_spec(spec)
            assert parse_replay_spec(spec) == (prefix, fallback)
            pol = scheduler_from_name(spec)
            assert isinstance(pol, ReplayScheduler)
            assert pol.prefix == prefix
            assert pol.fallback == fallback
            assert pol.name == spec

    def test_parser_rejects_non_canonical_spellings(self):
        # the spec string is the schedule's identity in cache keys and
        # corpus artifacts, so every spelling must be unique
        with pytest.raises(ValueError, match="bad replay choice"):
            parse_replay_spec("replay:lifo:03.1")
        with pytest.raises(ValueError, match="bad replay choice"):
            parse_replay_spec("replay:lifo:3..1")
        with pytest.raises(ValueError, match="bad replay choice"):
            parse_replay_spec("replay:lifo:-3")
        with pytest.raises(ValueError, match="non-canonical"):
            parse_replay_spec("replay:random")
        with pytest.raises(ValueError, match="empty prefix omits the tail"):
            parse_replay_spec("replay:lifo:")
        with pytest.raises(ValueError, match="bad replay fallback"):
            parse_replay_spec("replay:none:3")
        with pytest.raises(ValueError, match="bad replay fallback"):
            parse_replay_spec("replay:replay:3")
        with pytest.raises(ValueError, match="not a replay scheduler spec"):
            parse_replay_spec("fifo")

    def test_registry_exposes_the_bare_policy(self):
        assert "replay" in SCHEDULERS
        pol = scheduler_from_name("replay")
        assert isinstance(pol, ReplayScheduler)
        assert pol.prefix == () and pol.fallback == "random"


class TestPolicyQueue:
    def _queue(self, policy=None):
        return PolicyQueue(policy or FifoScheduler())

    def test_per_link_fifo_is_structural(self):
        """Even a newest-first policy cannot reorder two messages on the
        same directed link."""
        q = self._queue(LifoScheduler())
        first = Ping()
        second = Ping()
        q.push_raw(0.0, EventKind.DELIVER, 1, 0, first, 1)
        q.push_raw(0.0, EventKind.DELIVER, 1, 0, second, 2)
        assert q.pop_raw()[5] is first
        assert q.pop_raw()[5] is second

    def test_lifo_reorders_across_links(self):
        q = self._queue(LifoScheduler())
        old = Ping()
        new = Ping()
        q.push_raw(0.0, EventKind.DELIVER, 1, 0, old, 1)
        q.push_raw(0.0, EventKind.DELIVER, 2, 0, new, 1)
        assert q.pop_raw()[5] is new
        assert q.pop_raw()[5] is old

    def test_virtual_time_is_the_step_index(self):
        q = self._queue()
        q.push_raw(5.0, EventKind.START, 0)
        q.push_raw(9.0, EventKind.START, 1)
        assert q.pop_raw()[0] == 1.0
        assert q.pop_raw()[0] == 2.0
        assert q.now == 2.0

    def test_len_bool_and_empty_pop(self):
        q = self._queue()
        assert not q and len(q) == 0
        q.push_raw(0.0, EventKind.START, 0)
        assert q and len(q) == 1
        q.pop_raw()
        with pytest.raises(SchedulingError):
            q.pop_raw()

    def test_bogus_policy_choice_raises(self):
        class Bogus(SchedulerPolicy):
            def bind(self, seed, n):
                return None

            def choose(self, heads):
                return len(heads)  # out of range

        q = self._queue(Bogus())
        q.push_raw(0.0, EventKind.START, 0)
        with pytest.raises(SchedulingError, match="chose"):
            q.pop_raw()

    @pytest.mark.parametrize("choice", [True, False, np.int64(0), 0.0])
    def test_a_choice_that_is_not_exactly_int_raises(self, choice):
        """``isinstance(True, int)`` holds, so a bool would silently pick
        head 1 (or 0); numpy ints and floats are refused the same way."""

        class Sloppy(SchedulerPolicy):
            def bind(self, seed, n):
                return None

            def choose(self, heads):
                return choice

        q = self._queue(Sloppy())
        q.push_raw(0.0, EventKind.START, 0)
        q.push_raw(0.0, EventKind.START, 1)
        with pytest.raises(SchedulingError, match="chose"):
            q.pop_raw()


class _EchoProcess(Process):
    """Start → ping every neighbor; count pings received."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.got = 0

    def on_start(self):
        for v in self.neighbors:
            self.send(v, Ping())
        self.terminated = True

    def on_message(self, sender, msg):
        self.got += 1


class TestNetworkIntegration:
    @pytest.mark.parametrize("name", [n for n in sorted(SCHEDULERS) if n != "none"])
    def test_every_message_is_delivered_under_every_policy(self, name):
        g = gnp_connected(8, 0.4, seed=1)
        net = Network(g, _EchoProcess, seed=0, scheduler=scheduler_from_name(name))
        report = net.run()
        assert net.in_flight == 0
        assert report.total_messages == 2 * g.m
        assert sum(p.got for p in net.processes.values()) == 2 * g.m
        # virtual time: one step per processed event
        assert report.sim_time == report.events_processed

    @pytest.mark.parametrize("name", [n for n in sorted(SCHEDULERS) if n != "none"])
    def test_mdst_certifies_under_every_policy(self, name):
        g = make_family("gnp_sparse", 12, seed=2)
        tree = build_spanning_tree(g, method="random", seed=2).tree
        res = run_mdst(
            g,
            tree,
            config=MDSTConfig(),
            seed=5,
            scheduler=scheduler_from_name(name),
            check_invariants=True,
        )
        assert res.final_tree.is_spanning_tree_of(g)
        assert res.final_degree <= res.initial_degree

    def test_policy_run_is_deterministic(self):
        g = make_family("gnp_sparse", 10, seed=0)
        tree = build_spanning_tree(g, method="random", seed=0).tree

        def run():
            return run_mdst(
                g,
                tree,
                seed=3,
                scheduler=scheduler_from_name("random"),
            )

        a, b = run(), run()
        assert a.final_tree.parent_map() == b.final_tree.parent_map()
        assert a.messages == b.messages
        assert a.causal_time == b.causal_time

    def test_policies_actually_change_the_schedule(self):
        """Different policies must be able to produce different runs —
        otherwise the axis explores nothing. Compared on causal shape
        over a batch of instances (any single tiny instance may
        coincide)."""
        signatures = {}
        for name in ("fifo", "lifo", "random"):
            sig = []
            for seed in range(4):
                g = make_family("gnp_sparse", 14, seed=seed)
                tree = build_spanning_tree(g, method="random", seed=seed).tree
                res = run_mdst(
                    g, tree, seed=seed, scheduler=scheduler_from_name(name)
                )
                sig.append((res.messages, res.causal_time, res.final_degree))
            signatures[name] = tuple(sig)
        assert len(set(signatures.values())) > 1, signatures
