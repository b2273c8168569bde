"""Run-time accounting: message counts, bit volume, causal time.

The paper's two complexity measures are implemented exactly:

* **message complexity** — total number of messages exchanged, available
  per message type (so the per-step budgets of §4.2, e.g. "SearchDegree
  uses n − 1 messages", are individually checkable);
* **time complexity** — length of the longest causal dependency chain,
  tracked by stamping every message with ``depth = sender_clock + 1`` and
  updating each node's causal clock to ``max(clock, depth)`` on delivery.

Bit complexity follows the O(log n) field accounting of
:mod:`repro.sim.messages`. ``marks`` is a generic annotation channel used
by protocols to record phase boundaries (round starts/ends) without the
simulator knowing anything about the protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from .codec import codec_entry
from .messages import MESSAGE_TYPE_BITS, Message

__all__ = ["ClassTally", "MessageStats", "SimulationReport"]


class ClassTally:
    """Send accounting for one message class on one network: sends,
    identity fields summed over them, and the widest single message.
    ``count`` is the class's compiled field counter (from the codec)."""

    __slots__ = ("name", "count", "sends", "fields", "max_fields")

    def __init__(self, name: str, count: Callable[[Message], int]) -> None:
        self.name = name
        self.count = count
        self.sends = 0
        self.fields = 0
        self.max_fields = 0


class MessageStats:
    """Mutable accumulator owned by the network.

    A send updates one :class:`ClassTally` (``tallies``, keyed by message
    class in first-send order); ``total_messages``, ``total_bits``,
    ``by_type`` and ``max_id_fields`` are derived from the tallies on
    read. The delivery-side counters (``deliveries``,
    ``max_causal_depth``, ``max_sim_time``) are written by the drive
    loops.
    """

    def __init__(self, n: int = 0) -> None:
        self.n = n  # network size, for bit accounting
        # per-field bit cost is a function of n only
        self._id_bits = max(1, math.ceil(math.log2(max(n, 2))))
        self.tallies: dict[type, ClassTally] = {}
        self.deliveries = 0
        self.max_causal_depth = 0
        self.max_sim_time = 0.0
        self.marks: list[tuple[float, str, Any]] = []

    def tally_of(self, cls: type) -> ClassTally:
        """The tally of message class *cls*, created on its first send
        (registering the class with the codec, which rejects
        non-messages)."""
        tally = self.tallies.get(cls)
        if tally is None:
            entry = codec_entry(cls)
            tally = self.tallies[cls] = ClassTally(entry.name, entry.count)
        return tally

    def charge(self, msg: Message) -> int:
        """Account one send of *msg*; returns its bit cost."""
        tally = self.tally_of(msg.__class__)
        fields = tally.count(msg)
        tally.sends += 1
        tally.fields += fields
        if fields > tally.max_fields:
            tally.max_fields = fields
        return MESSAGE_TYPE_BITS + fields * self._id_bits

    def record_delivery(self, depth: int, time: float) -> None:
        self.deliveries += 1
        if depth > self.max_causal_depth:
            self.max_causal_depth = depth
        if time > self.max_sim_time:
            self.max_sim_time = time

    # -- totals, derived from the tallies --------------------------------

    @property
    def total_messages(self) -> int:
        return sum(t.sends for t in self.tallies.values())

    @property
    def total_bits(self) -> int:
        return sum(
            t.sends * MESSAGE_TYPE_BITS + t.fields * self._id_bits
            for t in self.tallies.values()
        )

    @property
    def by_type(self) -> dict[str, int]:
        """Sends per class name, in first-send order."""
        out: dict[str, int] = {}
        for t in self.tallies.values():
            out[t.name] = out.get(t.name, 0) + t.sends
        return out

    @property
    def max_id_fields(self) -> int:
        return max((t.max_fields for t in self.tallies.values()), default=0)

    def mark(self, time: float, label: str, value: Any = None) -> None:
        """Record a protocol annotation. Dict-valued marks are stamped
        with the running message counter (``_messages_so_far``) so
        per-phase message budgets can be audited post-run."""
        if isinstance(value, dict):
            value = dict(value)
            value["_messages_so_far"] = self.total_messages
        self.marks.append((time, label, value))

    def counts_for(self, *type_names: str) -> int:
        """Sum of message counts over the given type names."""
        by_type = self.by_type
        return sum(by_type.get(t, 0) for t in type_names)


@dataclass(frozen=True)
class SimulationReport:
    """Immutable summary returned by :meth:`repro.sim.network.Network.run`.

    Attributes mirror :class:`MessageStats` plus loop diagnostics.
    """

    events_processed: int
    quiescent: bool
    total_messages: int
    total_bits: int
    by_type: dict[str, int]
    max_id_fields: int
    causal_time: int
    sim_time: float
    marks: tuple[tuple[float, str, Any], ...]

    @classmethod
    def from_stats(
        cls, stats: MessageStats, events_processed: int, quiescent: bool
    ) -> "SimulationReport":
        return cls(
            events_processed=events_processed,
            quiescent=quiescent,
            total_messages=stats.total_messages,
            total_bits=stats.total_bits,
            by_type=stats.by_type,
            max_id_fields=stats.max_id_fields,
            causal_time=stats.max_causal_depth,
            sim_time=stats.max_sim_time,
            marks=tuple(stats.marks),
        )

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        lines = [
            f"events={self.events_processed} quiescent={self.quiescent}",
            f"messages={self.total_messages} bits={self.total_bits}"
            f" max_fields={self.max_id_fields}",
            f"causal_time={self.causal_time} sim_time={self.sim_time:.3f}",
        ]
        if self.by_type:
            per = ", ".join(f"{k}={v}" for k, v in sorted(self.by_type.items()))
            lines.append(f"by_type: {per}")
        return "\n".join(lines)
