"""Opt-in message provenance: the causal capture layer.

The engine's metrics answer *how much* a run did (messages, bits,
``causal_time``); this layer answers *why*. It comes in two depths,
both attached as ``Network(..., causal=...)``:

* :class:`CausalTally` keeps only the flat digest that travels on
  :class:`~repro.analysis.records.RunRecord` — per-section and
  per-phase send tallies plus running event/delivery/in-flight
  counters and the critical-path length. This is what a
  ``CellTemplate(causal=True)`` run without an explicit sink drives,
  which is every exploration probe: constant memory, no row per event.
* :class:`CausalCapture` (a tally subclass) additionally records, for
  every handled event, one :class:`CausalEvent` row with two parent
  links. The callers that want the DAG itself pass one explicitly:
  ``repro run --causal-out`` (and so ``repro inspect``), the tests, and
  the benchmark's traced re-drive. Its :meth:`~CausalTally.summary` is
  the inherited one, so both depths give the same digest for the same
  run (pinned by ``tests/test_causal.py``).

A capture row's links and tag:

* **handler parent** — the delivery whose handler sent the message (who
  caused this send, program-order causality);
* **clock parent** — the delivery that raised the sender's causal clock
  to ``depth - 1`` (who determined this message's *depth*). Following
  clock parents from the deepest event reconstructs the exact chain
  realizing the run's ``causal_time``: the critical path. The two
  parents genuinely differ — a handler may send long after an earlier
  delivery raised its node's clock — which is why both are recorded;
* **section / phase** — which protocol primitive owns the send. The
  primitives (:mod:`repro.protocol`) never send messages themselves
  (the host process owns every send, a byte-pinned discipline), so they
  stamp a module-global *current section* tag via :func:`stamp` when
  their bookkeeping runs, and the capture reads it at the next send.
  Sends issued before any primitive call in a handler fall into the
  honest catch-all section ``"protocol"``. :func:`stamp_phase` tracks
  the last :class:`~repro.protocol.phases.PhaseSequencer` phase entered
  (it persists across events; sections reset per event).

Default-off and zero-overhead: a network without a capture keeps its
fast drive loop byte-for-byte (the capture rides
``Network._drive_general`` exactly like traces do), and an inactive
:func:`stamp` is one module-global load plus a ``None`` check. The
active capture pointer is swapped in for the duration of one
``Network.run`` (and restored on exit), so a network only ever stamps
into its own capture. The network resolves each send's codec entry
once and hands the message name and bit cost to both its own
:class:`~repro.sim.metrics.MessageStats` and the capture.

Everything recorded is a pure function of the run: serial, ``--jobs N``
and warm-cache replays of the same spec produce byte-identical rows and
summaries (pinned by ``tests/test_causal.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "CausalEvent",
    "CausalTally",
    "CausalCapture",
    "stamp",
    "stamp_phase",
    "swap_active",
    "UNATTRIBUTED_SECTION",
]

#: Section charged for sends issued before any primitive stamped the
#: current handler (host-process bookkeeping like direct acks).
UNATTRIBUTED_SECTION = "protocol"


@dataclass(frozen=True, slots=True)
class CausalEvent:
    """One handled event (a START wake-up or a message delivery).

    ``parent`` / ``clock`` are row indices into the owning capture's
    ``rows`` list (``None`` at chain roots). ``depth`` is the engine's
    causal depth; the maximum over a run equals the report's
    ``causal_time``, and walking ``clock`` links from the deepest row
    yields exactly that many deliveries (the critical path).
    """

    idx: int
    kind: str  # "start" | "deliver"
    node: int
    sender: int  # -1 for start rows
    time: float
    depth: int  # 0 for start rows
    msg: str  # message class name ("" for start rows)
    bits: int  # codec bit cost of the message (0 for start rows)
    section: str  # owning primitive at send time ("" for start rows)
    phase: str  # last sequencer phase entered at send time
    parent: int | None  # handler parent (the delivery that sent this)
    clock: int | None  # clock parent (who determined `depth`)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "idx": self.idx,
            "kind": self.kind,
            "node": self.node,
            "sender": self.sender,
            "time": self.time,
            "depth": self.depth,
            "msg": self.msg,
            "bits": self.bits,
            "section": self.section,
            "phase": self.phase,
            "parent": self.parent,
            "clock": self.clock,
        }


class CausalTally:
    """Summary-only provenance for one network run.

    Keeps what :meth:`summary` reports and nothing else: the send-side
    section/phase tallies and four running counters (handled ``events``,
    delivered ``messages``, ``in_flight`` sends and the deepest causal
    depth ``crit_len``). Constant memory per run, so a caller that keeps
    only the digest — a fuzz probe, a ``causal=True``
    :class:`~repro.analysis.batch.CellTemplate` — pays no row per event.
    """

    __slots__ = (
        "events",
        "messages",
        "in_flight",
        "crit_len",
        "_section",
        "_phase",
        "_sent",
        "_phase_sent",
    )

    def __init__(self) -> None:
        self.events = 0
        self.messages = 0
        self.in_flight = 0
        self.crit_len = 0
        self._section: str = ""
        self._phase: str = ""
        #: send-time attribution: section -> [messages, bits] (counts
        #: every send, including ones a stalled run never delivers)
        self._sent: dict[str, list[int]] = {}
        self._phase_sent: dict[str, list[int]] = {}

    # -- send side (called by Network._send) ---------------------------

    def on_send(self, seq: int, src: int, msg: str, bits: int, depth: int) -> None:
        """Charge one send of message class *msg* costing *bits* to the
        current section and phase (the network resolved both once)."""
        self.in_flight += 1
        section = self._section or UNATTRIBUTED_SECTION
        tally = self._sent.get(section)
        if tally is None:
            self._sent[section] = [1, bits]
        else:
            tally[0] += 1
            tally[1] += bits
        if self._phase:
            tally = self._phase_sent.get(self._phase)
            if tally is None:
                self._phase_sent[self._phase] = [1, bits]
            else:
                tally[0] += 1
                tally[1] += bits

    # -- handle side (called by the drive loops) -----------------------

    def begin_start(self, node: int, time: float) -> None:
        self.events += 1
        self._section = ""

    def begin_deliver(
        self, seq: int, target: int, sender: int, time: float, depth: int
    ) -> None:
        self.events += 1
        self.messages += 1
        self.in_flight -= 1
        if depth > self.crit_len:
            self.crit_len = depth
        self._section = ""

    # -- digest --------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Flat, JSON-stable attribution digest (what
        :class:`~repro.analysis.records.RunRecord` carries in its
        ``causal`` field — a pure function of the run).
        """
        return {
            "crit_len": self.crit_len,
            "events": self.events,
            "messages": self.messages,
            "in_flight": self.in_flight,
            "sections": {
                name: list(tally) for name, tally in sorted(self._sent.items())
            },
            "phases": {
                name: list(tally)
                for name, tally in sorted(self._phase_sent.items())
            },
        }


class CausalCapture(CausalTally):
    """Full provenance recorder for one network run.

    Pass one as ``Network(..., causal=capture)`` (or through any
    registered algorithm's ``causal=`` keyword) and drive the run;
    afterwards ``rows`` holds the full causal DAG, and the inherited
    :meth:`~CausalTally.summary` the flat attribution digest that
    travels on :class:`~repro.analysis.records.RunRecord`.
    """

    __slots__ = ("rows", "_pending", "_clocks", "_last_clock", "_cur")

    def __init__(self) -> None:
        super().__init__()
        self.rows: list[CausalEvent] = []
        #: queue seq -> send-time provenance, consumed at delivery
        self._pending: dict[int, tuple] = {}
        self._clocks: dict[int, int] = {}
        self._last_clock: dict[int, int] = {}
        self._cur: int | None = None

    def on_send(self, seq: int, src: int, msg: str, bits: int, depth: int) -> None:
        CausalTally.on_send(self, seq, src, msg, bits, depth)
        self._pending[seq] = (
            self._cur,
            self._last_clock.get(src),
            msg,
            bits,
            self._section or UNATTRIBUTED_SECTION,
            self._phase,
        )

    def begin_start(self, node: int, time: float) -> None:
        CausalTally.begin_start(self, node, time)
        idx = len(self.rows)
        self.rows.append(
            CausalEvent(
                idx=idx, kind="start", node=node, sender=-1, time=time,
                depth=0, msg="", bits=0, section="", phase=self._phase,
                parent=None, clock=None,
            )
        )
        self._cur = idx

    def begin_deliver(
        self, seq: int, target: int, sender: int, time: float, depth: int
    ) -> None:
        CausalTally.begin_deliver(self, seq, target, sender, time, depth)
        parent, clock, msg, bits, section, phase = self._pending.pop(seq)
        idx = len(self.rows)
        self.rows.append(
            CausalEvent(
                idx=idx, kind="deliver", node=target, sender=sender,
                time=time, depth=depth, msg=msg, bits=bits,
                section=section, phase=phase, parent=parent, clock=clock,
            )
        )
        if depth > self._clocks.get(target, 0):
            self._clocks[target] = depth
            self._last_clock[target] = idx
        self._cur = idx


# -- the primitive stamping channel -------------------------------------------

#: The capture the currently-driving network routes stamps into (one
#: network drives at a time per process; the drive loop swaps this in
#: per chunk and restores it on exit).
_ACTIVE: CausalTally | None = None


def swap_active(capture: CausalTally | None) -> CausalTally | None:
    """Install *capture* as the stamp target; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = capture
    return previous


def stamp(section: str) -> None:
    """Tag subsequent sends in the current handler as owned by
    *section*. No-op (one global load + ``None`` check) without an
    active capture; the tag resets at the next handled event."""
    cap = _ACTIVE
    if cap is not None:
        cap._section = section


def stamp_phase(name: str) -> None:
    """Record that the protocol entered sequencer phase *name* (persists
    across events until the next phase stamp)."""
    cap = _ACTIVE
    if cap is not None:
        cap._phase = name
