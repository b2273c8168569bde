"""Node process abstraction.

A protocol implements a subclass of :class:`Process` per node; the network
instantiates one per graph node and drives it purely by events — the
paper's model: event-driven, no timeouts, no global clock, knowledge
limited to the node's own identity and its neighbors' identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import ChannelError
from .messages import Message

__all__ = ["NodeContext", "Process"]


@dataclass
class NodeContext:
    """What a node is allowed to see and do.

    Attributes
    ----------
    node_id:
        This node's identity.
    neighbors:
        Sorted tuple of neighbor identities (the paper allows knowing
        neighbor ids; see §2).
    """

    node_id: int
    neighbors: tuple[int, ...]
    _send: Callable[[int, int, Message], None] = field(repr=False, default=None)  # type: ignore[assignment]
    _now: Callable[[], float] = field(repr=False, default=None)  # type: ignore[assignment]
    _mark: Callable[[str, object], None] = field(repr=False, default=None)  # type: ignore[assignment]

    def send(self, dst: int, msg: Message) -> None:
        """Send *msg* to neighbor *dst* (must be adjacent)."""
        if dst not in self.neighbors:
            raise ChannelError(
                f"node {self.node_id} has no link to {dst} (neighbors: {self.neighbors})"
            )
        self._send(self.node_id, dst, msg)

    def now(self) -> float:
        """Current simulated time — **for annotation only**; protocols in
        this library never branch on it (event-driven model)."""
        return self._now()

    def mark(self, label: str, value: object = None) -> None:
        """Record a protocol annotation into the run metrics (e.g. round
        boundaries); invisible to other nodes."""
        self._mark(label, value)


class Process:
    """Base class for per-node protocol state machines.

    Subclasses override :meth:`on_start` (spontaneous wake-up) and
    :meth:`on_message`. All communication goes through ``self.ctx.send``.
    """

    def __init__(self, ctx: NodeContext) -> None:
        self.ctx = ctx
        self.terminated = False
        # prebound alias: ``self.send(...)`` goes straight to the context
        # send without the extra method frame. Fault wrappers that rebind
        # ``ctx.send`` rebind this alias too (see repro.sim.faults).
        self.send = ctx.send

    # -- identity sugar --------------------------------------------------

    @property
    def node_id(self) -> int:
        return self.ctx.node_id

    @property
    def neighbors(self) -> tuple[int, ...]:
        return self.ctx.neighbors

    def send(self, dst: int, msg: Message) -> None:  # pragma: no cover
        # shadowed by the prebound instance alias set in __init__; kept so
        # the class surface documents the call signature
        self.ctx.send(dst, msg)

    def halt(self) -> None:
        """Mark this node as protocol-terminated (for post-run assertions;
        the simulator itself stops at quiescence)."""
        self.terminated = True

    # -- dispatch ---------------------------------------------------------

    #: message-class -> unbound handler; protocol classes fill this in
    #: after their class body and route ``on_message`` through it.
    _DISPATCH: dict[type, Callable] = {}

    def _dispatch_lookup(self, msg: Message) -> Callable | None:
        """Resolve *msg* through the class's ``_DISPATCH`` table when the
        exact class missed: walk the message's mro (isinstance semantics
        for message subclasses) and cache the hit under the exact class so
        the next delivery is a single dict get. Returns ``None`` for a
        genuinely unknown message — the caller owns the error (or the
        deliberate silent drop, for wave protocols)."""
        table = type(self)._DISPATCH
        for base in msg.__class__.__mro__[1:]:
            handler = table.get(base)
            if handler is not None:
                table[msg.__class__] = handler
                return handler
        return None

    # -- handlers ---------------------------------------------------------

    def on_start(self) -> None:
        """Called once when the node spontaneously wakes up."""

    def on_message(self, sender: int, msg: Message) -> None:  # pragma: no cover
        """Called for every delivered message."""
        raise NotImplementedError
