"""Token walks and acknowledged root migration.

Two token-shaped primitives recur across the protocols:

* :class:`TokenWalk` — a single token traverses the graph depth-first,
  using each incident edge at most once, smallest identity first (the
  deterministic rule of the token-DFS spanning-tree construction);
* :class:`RootMigration` — the MDegST path-reversal walk: the current
  root hands the token (rootship) to the next hop and stays *parentless*
  until that hop acknowledges, so parent pointers form a forest — never
  a transient 2-cycle — at every observable instant (a repair of the
  paper's MoveRoot walk).
"""

from __future__ import annotations

from collections.abc import Iterable

from ..sim import provenance

__all__ = ["TokenWalk", "RootMigration"]


class TokenWalk:
    """Edge-at-most-once token traversal bookkeeping for one node."""

    __slots__ = ("used",)

    def __init__(self) -> None:
        self.used: set[int] = set()

    def next_hop(self, neighbors: Iterable[int], parent: int | None) -> int | None:
        """Pick (and mark used) the smallest unused non-parent neighbor,
        or ``None`` when this node's edges are exhausted."""
        if provenance.ACTIVE is not None:
            provenance.stamp("token_walk")
        candidates = [v for v in neighbors if v not in self.used and v != parent]
        if not candidates:
            return None
        nxt = min(candidates)
        self.used.add(nxt)
        return nxt


class RootMigration:
    """One-hop-at-a-time root handoff with per-hop acknowledgement."""

    __slots__ = ("outstanding",)

    def __init__(self) -> None:
        #: the hop whose ack is awaited; None = no handoff in flight
        self.outstanding: int | None = None

    def depart(self, via: int) -> None:
        """Record that rootship was handed to *via* (ack pending)."""
        if provenance.ACTIVE is not None:
            provenance.stamp("root_migration")
        self.outstanding = via

    def acknowledged(self, sender: int) -> bool:
        """True iff *sender* is the awaited hop; clears the handoff."""
        if provenance.ACTIVE is not None:
            provenance.stamp("root_migration")
        if self.outstanding != sender:
            return False
        self.outstanding = None
        return True
