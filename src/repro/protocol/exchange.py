"""The edge-exchange commit machinery shared by the improvement protocols.

Both the Blin–Butelle protocol and the FR-style protocol commit a chosen
exchange edge the same way (DESIGN.md §4.2 repairs):

1. ``Update`` travels from the cutter down the via pointers recorded by
   the wave echo to the *local* endpoint of the chosen edge;
2. the local endpoint asks the *remote* endpoint to adopt it
   (``ChildMsg``/``ChildAck`` — without the ack, ``ExchangeDone`` could
   outrun ``ChildMsg`` and the next round's Search would miss the fresh
   child);
3. ``FlipBack`` re-roots the fragment one hop at a time from the attach
   point back to the old fragment root (avoiding the transient parent
   cycles of the paper's down-flip);
4. the fragment root reports ``ExchangeDone`` to the cutter, whose
   degree drops by one.

:class:`ExchangeMixin` hosts steps 1–4 for any
:class:`~repro.sim.node.Process` that provides ``wave`` (a
:class:`~repro.protocol.wave.WaveEchoTracker` holding the via pointer),
``got_cut``, ``round_k``, ``is_cutter`` / ``awaiting_exchange`` flags and
an ``_exchange_finished()`` hook (the cutter's round bookkeeping). Keeping
one copy means a fix to the handshake fixes every registered algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProtocolError
from ..sim.messages import Message
from ..sim.provenance import stamp

__all__ = [
    "Update",
    "ChildMsg",
    "ChildAck",
    "FlipBack",
    "ExchangeDone",
    "ExchangeMixin",
]


@dataclass(frozen=True, slots=True)
class Update(Message):
    """⟨update, e⟩ — travels from the cutter down recorded via-pointers
    to the local endpoint of the chosen edge ``(local, remote)``."""

    local: int
    remote: int


@dataclass(frozen=True, slots=True)
class ChildMsg(Message):
    """⟨child⟩ — the local endpoint attaches under the remote endpoint."""


@dataclass(frozen=True, slots=True)
class ChildAck(Message):
    """Acknowledgement of ⟨child⟩ (repair: the exchange commit must not
    outrun the new parent's bookkeeping, or the next round's Search could
    miss the freshly attached child under asynchronous delays)."""


@dataclass(frozen=True, slots=True)
class FlipBack(Message):
    """Commit pass of the fragment re-rooting: flips parent/child one hop
    at a time from the attach point back to the old fragment root (repair:
    avoids the transient parent cycles of the paper's down-flip)."""


@dataclass(frozen=True, slots=True)
class ExchangeDone(Message):
    """Old fragment root → cutter: the exchange committed; the cutter
    drops the cut child and its degree decreases by one."""


class ExchangeMixin:
    """Update routing + attach/flip/commit handshake of one exchange."""

    # host contract: parent, children, neighbors, node_id, send(),
    # degree(), wave (WaveEchoTracker), got_cut, round_k, is_cutter,
    # awaiting_exchange, pending_attach, _exchange_finished()

    def _on_update(self, sender: int, msg: Update) -> None:
        stamp("exchange")
        if sender != self.parent:
            raise ProtocolError(f"{self.node_id}: Update from non-parent {sender}")
        if self.node_id == msg.local:
            self._attach(msg.remote)
        else:
            if self.wave.via_best is None:
                raise ProtocolError(
                    f"{self.node_id}: Update for {msg.local} but no via pointer"
                )
            self.send(self.wave.via_best, Update(local=msg.local, remote=msg.remote))

    def _attach(self, remote: int) -> None:
        """This node is the local endpoint: ask the remote endpoint to
        adopt us; the flip proceeds once the adoption is acknowledged."""
        stamp("exchange")
        if remote not in self.neighbors:
            raise ProtocolError(
                f"{self.node_id}: chosen edge to non-neighbor {remote}"
            )
        self.pending_attach = remote
        self.send(remote, ChildMsg())

    def _on_child(self, sender: int) -> None:
        stamp("exchange")
        self.children.add(sender)
        self.send(sender, ChildAck())
        if self.round_k and self.degree() >= self.round_k:
            raise ProtocolError(
                f"{self.node_id}: attach raised degree to {self.degree()}"
                f" >= k={self.round_k}"
            )

    def _on_child_ack(self, sender: int) -> None:
        """Adoption confirmed: commit the re-rooting (repair: without the
        ack, ExchangeDone can outrun ChildMsg and the next round's Search
        would miss the fresh child)."""
        stamp("exchange")
        if self.pending_attach != sender:
            raise ProtocolError(f"{self.node_id}: stray ChildAck from {sender}")
        self.pending_attach = None
        old_parent = self.parent
        if old_parent is None:
            raise ProtocolError(
                f"{self.node_id}: ChildAck from {sender} but no parent to flip"
            )
        self.parent = sender
        if self.got_cut:
            # single-hop fragment: the old parent is the cutter itself
            self.send(old_parent, ExchangeDone())
        else:
            self.children.add(old_parent)
            self.send(old_parent, FlipBack())

    def _on_flip_back(self, sender: int) -> None:
        """One reversal hop: my via-side child becomes my parent."""
        stamp("exchange")
        if sender not in self.children:
            raise ProtocolError(f"{self.node_id}: FlipBack from non-child {sender}")
        old_parent = self.parent
        if old_parent is None:
            raise ProtocolError(
                f"{self.node_id}: FlipBack from {sender} but no parent to flip"
            )
        self.children.discard(sender)
        self.parent = sender
        if self.got_cut:
            # I was the fragment root: the old parent is the cutter
            self.send(old_parent, ExchangeDone())
        else:
            self.children.add(old_parent)
            self.send(old_parent, FlipBack())

    def _on_exchange_done(self, sender: int) -> None:
        stamp("exchange")
        if not (self.is_cutter and self.awaiting_exchange):
            raise ProtocolError(f"{self.node_id}: unexpected ExchangeDone")
        self.children.discard(sender)
        self.awaiting_exchange = False
        self._exchange_finished()

    def _exchange_finished(self) -> None:  # pragma: no cover - contract
        raise NotImplementedError
