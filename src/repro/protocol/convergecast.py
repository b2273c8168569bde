"""Tree convergecast with pluggable aggregation.

A broadcast/convergecast pair is the workhorse of every coordinator-driven
round: the root floods a request down the tree and each node reports its
subtree's aggregate upward once all children have reported. The
*aggregation* is pluggable: any object with an ``absorb(child, payload)``
method (e.g. :class:`repro.protocol.rounds.DegreeAggregate`, which tracks
the max-degree holder plus via pointers for later routing).

The host process constructs the :class:`Convergecast` seeded with its own
contribution, forwards the broadcast itself (keeping send order under its
control), then calls :meth:`open`; each report is fed through
:meth:`absorb`, and the completion callback fires exactly once when the
last expected child has reported.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any, Protocol

from ..errors import ProtocolError
from ..sim import provenance

__all__ = ["Aggregate", "Convergecast"]


class Aggregate(Protocol):
    """Anything that can fold a child's report into a running aggregate."""

    def absorb(self, child: int, payload: Any) -> None: ...


class Convergecast:
    """Upward aggregation over a fixed set of children.

    Parameters
    ----------
    aggregate:
        Mutable aggregation state, pre-seeded with the host node's own
        contribution.
    children:
        The peers a report is expected from (exactly one each).
    on_complete:
        Called once, with the aggregate, when every child has reported —
        or from :meth:`open` if there are no children at all.
    name:
        Diagnostic label used in protocol-violation errors.
    owner:
        Optional owning node id; errors then read ``{owner}:{name}``
        (formatted only when one is raised).
    """

    __slots__ = ("aggregate", "pending", "_on_complete", "name", "owner")

    def __init__(
        self,
        aggregate: Aggregate,
        children: Iterable[int],
        on_complete: Callable[[Any], None],
        name: str = "convergecast",
        owner: int | None = None,
    ) -> None:
        self.aggregate = aggregate
        self.pending: set[int] = set(children)
        self._on_complete = on_complete
        self.name = name
        self.owner = owner

    @property
    def complete(self) -> bool:
        return not self.pending

    def open(self) -> None:
        """Declare the broadcast sent; fires completion for leaves."""
        if provenance.ACTIVE is not None:
            provenance.stamp("convergecast")
        if not self.pending:
            self._on_complete(self.aggregate)

    def absorb(self, child: int, payload: Any) -> None:
        """Fold one child report in; fires completion on the last one."""
        if provenance.ACTIVE is not None:
            provenance.stamp("convergecast")
        if child not in self.pending:
            label = self.name if self.owner is None else f"{self.owner}:{self.name}"
            raise ProtocolError(f"{label}: unexpected report from {child}")
        self.aggregate.absorb(child, payload)
        self.pending.discard(child)
        if not self.pending:
            self._on_complete(self.aggregate)
