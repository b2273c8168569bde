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
from dataclasses import dataclass, field
from typing import Any

from .codec import codec_entry
from .messages import MESSAGE_TYPE_BITS, Message

__all__ = ["MessageStats", "SimulationReport"]


@dataclass
class MessageStats:
    """Mutable accumulator owned by the network."""

    n: int = 0  # network size, for bit accounting
    total_messages: int = 0
    total_bits: int = 0
    by_type: dict[str, int] = field(default_factory=dict)
    max_id_fields: int = 0
    max_causal_depth: int = 0
    max_sim_time: float = 0.0
    deliveries: int = 0
    marks: list[tuple[float, str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Per-field bit cost is a function of n only; computing it once
        # keeps record_send off the math/log path (hot: once per message).
        self._id_bits = max(1, math.ceil(math.log2(max(self.n, 2))))

    def record_send(self, msg: Message) -> None:
        entry = codec_entry(msg.__class__)
        self.charge(entry.name, entry.count(msg))

    def charge(self, name: str, fields: int) -> int:
        """Account one send of message class *name* carrying *fields*
        identity-sized slots; returns its bit cost."""
        self.total_messages += 1
        self.by_type[name] = self.by_type.get(name, 0) + 1
        if fields > self.max_id_fields:
            self.max_id_fields = fields
        bits = MESSAGE_TYPE_BITS + fields * self._id_bits
        self.total_bits += bits
        return bits

    def record_delivery(self, depth: int, time: float) -> None:
        self.deliveries += 1
        if depth > self.max_causal_depth:
            self.max_causal_depth = depth
        if time > self.max_sim_time:
            self.max_sim_time = time

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
        return sum(self.by_type.get(t, 0) for t in type_names)


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
            by_type=dict(stats.by_type),
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
