"""Unit tests for repro.sim.events and repro.sim.messages."""

from dataclasses import dataclass

import pytest

from repro.errors import SchedulingError
from repro.sim import EventKind, EventQueue, Message, message_bits


class TestEventQueue:
    def test_push_pop_order(self):
        q = EventQueue()
        q.push_raw(2.0, EventKind.START, target=1)
        q.push_raw(1.0, EventKind.START, target=2)
        q.push_raw(3.0, EventKind.START, target=3)
        assert q.pop_raw()[3] == 2
        assert q.pop_raw()[3] == 1
        assert q.pop_raw()[3] == 3

    def test_tie_break_by_enqueue_order(self):
        q = EventQueue()
        for target in (5, 3, 9):
            q.push_raw(1.0, EventKind.START, target=target)
        assert [q.pop_raw()[3] for _ in range(3)] == [5, 3, 9]

    def test_now_advances(self):
        q = EventQueue()
        q.push_raw(4.5, EventKind.START, target=0)
        assert q.now == 0.0
        q.pop_raw()
        assert q.now == 4.5

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.push_raw(5.0, EventKind.START, target=0)
        q.pop_raw()
        with pytest.raises(SchedulingError):
            q.push_raw(4.0, EventKind.START, target=0)

    def test_pop_empty_raises(self):
        with pytest.raises(SchedulingError):
            EventQueue().pop_raw()

    def test_len_and_bool(self):
        q = EventQueue()
        assert len(q) == 0 and not q
        q.push_raw(7.0, EventKind.START, target=0)
        assert len(q) == 1
        assert bool(q)

    def test_raw_entry_fields(self):
        q = EventQueue()
        seq = q.push_raw(1.0, EventKind.DELIVER, target=2, sender=1, payload="x", depth=3)
        assert seq == 0
        assert q.pop_raw() == (1.0, 0, EventKind.DELIVER, 2, 1, "x", 3)


@dataclass(frozen=True, slots=True)
class Probe(Message):
    a: int
    b: int | None = None
    pair: tuple[int, int] | None = None


class TestMessage:
    def test_type_name(self):
        assert Probe(a=1).type_name == "Probe"

    def test_field_values_skips_none(self):
        assert Probe(a=1).field_values() == [1]
        assert Probe(a=1, b=2).field_values() == [1, 2]

    def test_tuple_fields_flattened(self):
        assert Probe(a=1, pair=(4, 5)).field_values() == [1, 4, 5]
        assert Probe(a=1, pair=(4, None)).field_values() == [1, 4]  # type: ignore[arg-type]

    def test_bool_counts_as_scalar(self):
        @dataclass(frozen=True, slots=True)
        class Flagged(Message):
            ok: bool

        assert Flagged(ok=True).field_values() == [1]

    def test_non_scalar_rejected(self):
        @dataclass(frozen=True, slots=True)
        class Bad(Message):
            data: object

        with pytest.raises(TypeError):
            Bad(data=[1, 2]).field_values()

    def test_id_field_count(self):
        assert Probe(a=1, b=2, pair=(3, 4)).id_field_count() == 4

    def test_message_bits(self):
        msg = Probe(a=1, b=2)
        # n=16 -> 4 bits per field, 2 fields, +5 type bits
        assert message_bits(msg, n=16) == 5 + 2 * 4
        assert message_bits(msg, n=2) == 5 + 2 * 1
        assert message_bits(msg, n=1) == 5 + 2 * 1


class TestBucketQueue:
    """Engine-v2 flat bucket queue: same API and pop order as the heap."""

    def _fill(self, queue):
        queue.push_raw(1.0, EventKind.DELIVER, target=1, sender=0, depth=1)
        queue.push_raw(0.0, EventKind.START, target=0)
        queue.push_raw(1.0, EventKind.DELIVER, target=2, sender=0, depth=1)
        queue.push_raw(2.0, EventKind.DELIVER, target=0, sender=1, depth=2)

    def test_pop_order_matches_heap_queue(self):
        from repro.sim.events import BucketQueue

        bucket, heap = BucketQueue(), EventQueue()
        self._fill(bucket)
        self._fill(heap)
        while bucket or heap:
            assert bucket.pop_raw() == heap.pop_raw()
        assert not bucket and not heap

    def test_unit_delay_workload_equivalent_to_heap(self):
        """The engine's actual shape: each popped event schedules its
        successors at now + 1 while the current bucket is draining."""
        import random

        from repro.sim.events import BucketQueue

        def drive(queue):
            rng = random.Random(42)
            for u in range(4):
                queue.push_raw(0.0, EventKind.START, target=u)
            popped = []
            budget = 400
            while queue and budget:
                budget -= 1
                item = queue.pop_raw()
                popped.append(item)
                for _ in range(rng.randrange(3)):
                    queue.push_raw(
                        queue.now + 1.0,
                        EventKind.DELIVER,
                        target=rng.randrange(4),
                        sender=item[3],
                        depth=item[6] + 1,
                    )
            return popped

        assert drive(BucketQueue()) == drive(EventQueue())

    def test_push_at_draining_time_keeps_seq_order(self):
        """A push at the *current* time while its bucket drains opens a
        fresh bucket that is still consumed before any later time."""
        from repro.sim.events import BucketQueue

        q = BucketQueue()
        q.push_raw(1.0, EventKind.DELIVER, target=0, sender=9, depth=1)
        q.push_raw(2.0, EventKind.DELIVER, target=3, sender=9, depth=1)
        first = q.pop_raw()
        assert first[3] == 0 and q.now == 1.0
        q.push_raw(1.0, EventKind.DELIVER, target=1, sender=9, depth=1)
        q.push_raw(1.0, EventKind.DELIVER, target=2, sender=9, depth=1)
        order = [q.pop_raw()[3] for _ in range(3)]
        assert order == [1, 2, 3]  # same-time pushes before time 2.0

    def test_cannot_schedule_in_past(self):
        from repro.sim.events import BucketQueue

        q = BucketQueue()
        q.push_raw(2.0, EventKind.DELIVER, target=0)
        q.pop_raw()
        with pytest.raises(SchedulingError, match="before current time"):
            q.push_raw(1.0, EventKind.DELIVER, target=0)

    def test_len_bool_mid_drain(self):
        from repro.sim.events import BucketQueue

        q = BucketQueue()
        assert len(q) == 0 and not q
        self._fill(q)
        assert len(q) == 4 and q
        q.pop_raw()  # draining the t=0 bucket
        assert len(q) == 3
        assert q.pop_raw()[0] == 1.0
        assert len(q) == 2 and q  # mid-bucket
        assert q.pop_raw()[0] == 1.0
        q.pop_raw()
        assert len(q) == 0 and not q
        with pytest.raises(SchedulingError, match="pop from empty"):
            q.pop_raw()

    def test_pop_returns_the_raw_entry(self):
        from repro.sim.events import BucketQueue

        q = BucketQueue()
        q.push_raw(1.0, EventKind.DELIVER, target=7, sender=3, depth=2)
        assert q.pop_raw() == (1.0, 0, EventKind.DELIVER, 7, 3, None, 2)
        assert q.now == 1.0
