"""Unit tests of the reusable protocol primitives (repro.protocol)."""

import pytest

from repro.errors import ProtocolError
from repro.protocol import (
    Convergecast,
    CountdownBarrier,
    DrainSet,
    PhaseSequencer,
    RootMigration,
    TokenWalk,
    WaveEchoTracker,
)


class SumAggregate:
    def __init__(self, own):
        self.total = own
        self.reports = []

    def absorb(self, child, payload):
        self.total += payload
        self.reports.append((child, payload))


class TestConvergecast:
    def test_leaf_fires_on_open(self):
        done = []
        cc = Convergecast(SumAggregate(5), (), done.append)
        cc.open()
        assert done and done[0].total == 5

    def test_fires_exactly_on_last_report(self):
        done = []
        cc = Convergecast(SumAggregate(1), {2, 3}, done.append)
        cc.open()
        assert not done
        cc.absorb(2, 10)
        assert not done and not cc.complete
        cc.absorb(3, 100)
        assert done and done[0].total == 111 and cc.complete

    def test_unexpected_report_raises(self):
        cc = Convergecast(SumAggregate(0), {1}, lambda agg: None)
        with pytest.raises(ProtocolError, match="unexpected report"):
            cc.absorb(9, 1)

    def test_duplicate_report_raises(self):
        cc = Convergecast(SumAggregate(0), {1, 2}, lambda agg: None)
        cc.absorb(1, 1)
        with pytest.raises(ProtocolError):
            cc.absorb(1, 1)


class TestDrainSet:
    def test_drain_order_free(self):
        d = DrainSet([4, 7, 9])
        assert not d.drained
        for peer in (9, 4, 7):
            d.satisfy(peer)
        assert d.drained

    def test_unexpected_reply_raises(self):
        d = DrainSet([1])
        with pytest.raises(ProtocolError, match="unexpected reply"):
            d.satisfy(2)


class TestWaveEchoTracker:
    def test_defer_before_arm(self):
        w = WaveEchoTracker()
        w.defer("probe-a")
        w.defer("probe-b")
        assert w.take_deferred() == ["probe-a", "probe-b"]
        assert w.take_deferred() == []

    def test_double_arm_raises(self):
        w = WaveEchoTracker()
        w.arm(echo=(1,), cross=(2,))
        with pytest.raises(ProtocolError, match="armed twice"):
            w.arm(echo=(), cross=())

    def test_finish_once_requires_both_drains(self):
        w = WaveEchoTracker()
        w.arm(echo=(1,), cross=(5,))
        assert not w.finish_once()
        w.echo_from(1)
        assert not w.finish_once()  # cross still pending
        w.cross_from(5)
        assert w.finish_once()
        assert not w.finish_once()  # latched

    def test_unexpected_echo_and_cross_raise(self):
        w = WaveEchoTracker()
        w.arm(echo=(1,), cross=(2,))
        with pytest.raises(ProtocolError):
            w.echo_from(3)
        with pytest.raises(ProtocolError):
            w.cross_from(3)

    def test_consider_keeps_minimum(self):
        w = WaveEchoTracker()
        w.consider((3, 10, 11), via=1)
        w.consider((2, 99, 98), via=2)
        w.consider((2, 100, 1), via=3)  # larger tuple: ignored
        assert w.best == (2, 99, 98)
        assert w.via_best == 2


class TestTokenWalk:
    def test_visits_smallest_first_each_edge_once(self):
        walk = TokenWalk()
        hops = []
        while (h := walk.next_hop((3, 1, 2), parent=None)) is not None:
            hops.append(h)
        assert hops == [1, 2, 3]

    def test_parent_excluded(self):
        walk = TokenWalk()
        assert walk.next_hop((1, 2), parent=1) == 2
        assert walk.next_hop((1, 2), parent=1) is None


class TestRootMigration:
    def test_handshake(self):
        m = RootMigration()
        m.depart(4)
        assert not m.acknowledged(5)  # stray ack rejected
        assert m.acknowledged(4)
        assert m.outstanding is None
        assert not m.acknowledged(4)  # no double-ack


class TestCountdownBarrier:
    def test_fires_at_zero(self):
        fired = []
        b = CountdownBarrier(3, lambda: fired.append(True))
        b.arrive()
        b.arrive()
        assert not fired
        b.arrive()
        assert fired

    def test_overrun_raises(self):
        b = CountdownBarrier(1, lambda: None)
        b.arrive()
        with pytest.raises(ProtocolError, match="after barrier release"):
            b.arrive()

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ProtocolError):
            CountdownBarrier(0, lambda: None)


class TestPhaseSequencer:
    def test_advance_cycles(self):
        seq = PhaseSequencer(("a", "b"))
        assert seq.current == "a"
        assert seq.advance() == "b"
        assert seq.current == "b"
        assert seq.advance() == "a"  # wraps (new round)

    def test_require_rejects_out_of_phase(self):
        seq = PhaseSequencer(("search", "improve"))
        seq.require("search")
        with pytest.raises(ProtocolError, match="expected 'improve'"):
            seq.require("improve", "report")

    def test_reset(self):
        seq = PhaseSequencer(("x", "y"))
        seq.advance()
        seq.reset()
        assert seq.current == "x"

    def test_empty_phases_rejected(self):
        with pytest.raises(ProtocolError):
            PhaseSequencer(())
