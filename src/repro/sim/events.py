"""Event primitives for the discrete-event simulator.

Two queue implementations share one API:

* :class:`EventQueue` — a binary heap ordered by ``(time, seq)`` where
  ``seq`` is a global enqueue counter: ties in simulated time resolve
  deterministically in enqueue order, which makes every simulation
  bit-reproducible for a fixed seed (a property the experiment harness
  and the regression tests rely on). Works for arbitrary delay models.
* :class:`BucketQueue` — the engine-v2 fast structure for the dominant
  configuration (unit delays, no scheduler policy): events land in flat
  per-time buckets (appended in ``seq`` order, because ``seq`` is
  globally monotone and pushes happen in execution order) and a small
  heap orders the distinct times. Pop order is **identical** to
  :class:`EventQueue` — ``(time, seq)`` — it just replaces one
  O(log queue) heap operation per event with an O(1) list append/index.

Hot-path layout: both queues store raw tuples
``(time, seq, kind, target, sender, payload, depth)`` — no per-event
object is allocated on the simulator's inner loop; ``push_raw`` takes
the fields and ``pop_raw`` returns the tuple. ``seq`` is unique, so
heap comparisons never reach the non-comparable payload slot. ``depth``
is the causal depth of a message: 1 + the causal clock of the sender
at send time. The maximum depth over a run is the paper's *time
complexity* (longest causal dependency chain).

:class:`EventKind` is an :class:`~enum.IntEnum` (``START == 0``,
``DELIVER == 1``) so the engine's dispatch is an int branch, not a
string or class check.
"""

from __future__ import annotations

from enum import IntEnum
from heapq import heappop, heappush
from typing import Any

from ..errors import SchedulingError

__all__ = ["EventKind", "EventQueue", "BucketQueue"]


class EventKind(IntEnum):
    """What an event does when popped (int-valued: the engine dispatches
    on the raw int, ``DELIVER`` being the hot truthy case)."""

    START = 0  # wake a node's on_start handler
    DELIVER = 1  # deliver a message to a node


class EventQueue:
    """Deterministic binary-heap event queue."""

    __slots__ = ("_heap", "_seq", "_now")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventKind, int, int, Any, int]] = []
        self._seq = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time (time of the last popped event)."""
        return self._now

    def get_now(self) -> float:
        """Bound-method clock accessor, shared by every node context."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push_raw(
        self,
        time: float,
        kind: EventKind,
        target: int,
        sender: int = -1,
        payload: Any = None,
        depth: int = 0,
    ) -> int:
        """Schedule an event at absolute *time* (must not be in the past).

        Returns the sequence number assigned to the entry. ``seq`` is
        unique per queue and is the correlation key the provenance layer
        (:mod:`repro.sim.provenance`) uses to join a send with its
        eventual delivery.
        """
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, kind, target, sender, payload, depth))
        return seq

    def pop_raw(self) -> tuple[float, int, EventKind, int, int, Any, int]:
        """Pop the earliest raw entry and advance the clock to it."""
        if not self._heap:
            raise SchedulingError("pop from empty event queue")
        item = heappop(self._heap)
        self._now = item[0]
        return item



class BucketQueue:
    """Flat time-bucketed event queue (same API and pop order as
    :class:`EventQueue`).

    Events at the same timestamp live in one flat list bucket, appended
    in enqueue order — and ``seq`` is globally monotone, so every bucket
    is ``seq``-sorted by construction. A heap of *distinct* times picks
    the next bucket; under unit delays almost every event at time ``t``
    schedules its successors at ``t + 1``, so the heap sees a handful of
    entries instead of one per event.

    A push at a time whose bucket is *currently draining* (or already
    drained) simply opens a fresh bucket and re-registers the time in
    the heap; the fresh bucket's sequence numbers are all larger than
    anything drained before it, so ``(time, seq)`` order is preserved.
    The in-the-past guard is the same as :class:`EventQueue`'s.
    """

    __slots__ = ("_buckets", "_times", "_cur", "_cur_idx", "_seq", "_now")

    def __init__(self) -> None:
        #: time -> flat list of raw event tuples, append-only
        self._buckets: dict[float, list[tuple]] = {}
        #: min-heap of distinct bucket times not yet draining
        self._times: list[float] = []
        #: the bucket currently being drained + read cursor into it
        self._cur: list[tuple] = []
        self._cur_idx = 0
        self._seq = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def get_now(self) -> float:
        return self._now

    def __len__(self) -> int:
        pending = len(self._cur) - self._cur_idx
        return pending + sum(len(b) for b in self._buckets.values())

    def __bool__(self) -> bool:
        return self._cur_idx < len(self._cur) or bool(self._times)

    def push_raw(
        self,
        time: float,
        kind: EventKind,
        target: int,
        sender: int = -1,
        payload: Any = None,
        depth: int = 0,
    ) -> int:
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(time, seq, kind, target, sender, payload, depth)]
            heappush(self._times, time)
        else:
            bucket.append((time, seq, kind, target, sender, payload, depth))
        return seq

    def pop_raw(self) -> tuple[float, int, EventKind, int, int, Any, int]:
        idx = self._cur_idx
        if idx >= len(self._cur):
            if not self._times:
                raise SchedulingError("pop from empty event queue")
            t = heappop(self._times)
            self._cur = self._buckets.pop(t)
            self._now = t
            idx = 0
        item = self._cur[idx]
        self._cur_idx = idx + 1
        self._now = item[0]
        return item
