"""Wave + echo over fragment subtrees, with the cross-edge drain repair.

The fragment-exploration step of MDegST (and of the FR-style improvement
protocol) floods a wave over a subtree while probing non-tree edges for
*cousins* in other fragments. The asynchronous repair (every cross
probe is answered, see :class:`~repro.mdst.messages.CousinReply`)
demands a strict drain discipline: a node may echo only
after (a) every child it forwarded the wave to has echoed and (b) every
cross-edge probe it sent has been answered — otherwise stale waves leak
into the next round. :class:`WaveEchoTracker` owns exactly that
discipline, plus the deferred-wave buffer for probes that arrive before
the node has joined a fragment, and the running best-candidate aggregate
with its via pointer (for routing the eventual Update).

:class:`DrainSet` is the degenerate one-level version — a set of peers
each owing exactly one reply — used by the flooding/echo spanning-tree
construction.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from ..errors import ProtocolError
from ..sim import provenance

__all__ = ["DrainSet", "WaveEchoTracker"]

#: An unarmed tracker's expectations (immutable, so one serves them all).
_NOTHING: frozenset[int] = frozenset()


class DrainSet:
    """A set of peers from each of whom exactly one reply is awaited."""

    __slots__ = ("pending", "name")

    def __init__(self, peers: Iterable[int], name: str = "drain") -> None:
        self.pending: set[int] = set(peers)
        self.name = name

    @property
    def drained(self) -> bool:
        return not self.pending

    def satisfy(self, peer: int) -> None:
        if provenance.ACTIVE is not None:
            provenance.stamp("wave")
        if peer not in self.pending:
            raise ProtocolError(f"{self.name}: unexpected reply from {peer}")
        self.pending.discard(peer)


class WaveEchoTracker:
    """Bookkeeping for one node's role in a fragment wave+echo.

    Created *unarmed* at round reset: probes arriving before the node has
    a fragment identity are parked with :meth:`defer`, and any echo or
    cross reply is a protocol violation. :meth:`arm` installs the
    expected-echo set (tree peers the wave was forwarded to) and the
    expected-cross set (non-tree neighbors probed); the tracker is
    *drained* once both empty. ``finish_once`` latches so the subtree
    echo is emitted exactly once.

    The same class serves the cutter's aggregation over its cut
    fragments: echoes expected from each cut child, candidates folded
    with :meth:`consider`, choice latched by ``echoed``.
    """

    __slots__ = (
        "expected_echo",
        "expected_cross",
        "echoed",
        "best",
        "via_best",
        "deferred",
        "armed",
        "name",
        "owner",
    )

    def __init__(self, name: str = "wave", owner: int | None = None) -> None:
        # unarmed: nothing expected (the shared empty sets are never
        # mutated -- a reply must be expected before it is discarded, and
        # arm installs fresh sets) and nothing deferred yet
        self.expected_echo: set[int] | frozenset[int] = _NOTHING
        self.expected_cross: set[int] | frozenset[int] = _NOTHING
        self.echoed = False
        #: best candidate seen so far (tuple ordering = protocol's choice key)
        self.best: tuple | None = None
        #: which peer reported ``best`` (None = booked locally)
        self.via_best: int | None = None
        self.deferred: list[Any] | tuple = ()
        self.armed = False
        self.name = name
        #: owning node id: errors read ``{owner}:{name}``, formatted only
        #: when one is raised
        self.owner = owner

    def _error(self, text: str) -> ProtocolError:
        label = self.name if self.owner is None else f"{self.owner}:{self.name}"
        return ProtocolError(f"{label}: {text}")

    # -- lifecycle -------------------------------------------------------

    def arm(self, echo: Iterable[int], cross: Iterable[int]) -> None:
        """Install expectations once the node adopts a fragment identity."""
        if provenance.ACTIVE is not None:
            provenance.stamp("wave")
        if self.armed:
            raise self._error("armed twice in one round")
        self.armed = True
        self.expected_echo = set(echo)
        self.expected_cross = set(cross)

    def defer(self, item: Any) -> None:
        """Park a probe that arrived before the fragment identity did."""
        self.deferred = [*self.deferred, item]

    def take_deferred(self) -> list[Any]:
        if provenance.ACTIVE is not None:
            provenance.stamp("wave")
        pending, self.deferred = list(self.deferred), ()
        return pending

    # -- replies ---------------------------------------------------------

    def echo_from(self, child: int) -> None:
        if provenance.ACTIVE is not None:
            provenance.stamp("wave")
        if child not in self.expected_echo:
            raise self._error(f"unexpected echo from {child}")
        self.expected_echo.discard(child)

    def cross_from(self, peer: int) -> None:
        if provenance.ACTIVE is not None:
            provenance.stamp("wave")
        if peer not in self.expected_cross:
            raise self._error(f"unexpected cross reply from {peer}")
        self.expected_cross.discard(peer)

    # -- aggregation -----------------------------------------------------

    def consider(self, cand: tuple, via: int | None) -> None:
        """Fold a candidate in (smaller tuple wins, first seen on ties)."""
        if self.best is None or cand < self.best:
            self.best = cand
            self.via_best = via

    # -- completion ------------------------------------------------------

    @property
    def drained(self) -> bool:
        return not self.expected_echo and not self.expected_cross

    def finish_once(self) -> bool:
        """True exactly once, when fully drained (echo/choose latch)."""
        if provenance.ACTIVE is not None:
            provenance.stamp("wave")
        if self.echoed or self.expected_echo or self.expected_cross:
            return False
        self.echoed = True
        return True
