"""Per-node state machine of the distributed MDegST protocol (§3 of the
paper, with the repairs described in :mod:`repro.protocol.rounds`).

The round itself — SearchDegree, Cut + BFS waves, choose + exchange and
the round barrier — is :class:`~repro.protocol.rounds.ImprovementProcess`.
This module adds the Blin–Butelle policies:

* **the coordinator migrates** — after SearchDegree the root walks to
  the target max-degree node along the via pointers, reversing the path
  (``MoveRoot``/``MoveRootAck``, the paper's path-reversal technique),
  and the target roots the round;
* **the wave goes down from the cut** — a cutter cuts its children
  only; each fragment floods its subtree and echoes to its parent;
* **concurrent cutters with single-target polish** — in ``concurrent``
  mode every max-degree node a wave reaches cuts too, and the round
  barrier counts them all; when a concurrent round improves nothing the
  protocol continues with single-target rounds (``MDSTConfig.polish``);
* **set-order sends** — broadcasts follow the children set's own order.

Invariants maintained at *every* instant (checked by monitors in tests):
parent pointers form a tree spanning all nodes; the tree's maximum degree
never increases; every tree edge is a graph edge.
"""

from __future__ import annotations

from ..errors import ProtocolError
from ..protocol.phases import CountdownBarrier
from ..protocol.rounds import (
    Agg,
    DegreeAggregate,
    FragId,
    ImprovementProcess,
)
from ..protocol.token import RootMigration
from ..sim.node import NodeContext
from .config import MDSTConfig
from .messages import MoveRoot, MoveRootAck

__all__ = ["Agg", "DegreeAggregate", "FragId", "MDSTProcess"]


class MDSTProcess(ImprovementProcess):
    """One network node running the MDegST protocol."""

    def __init__(
        self,
        ctx: NodeContext,
        parent: int | None,
        children: set[int],
        config: MDSTConfig,
    ) -> None:
        super().__init__(
            ctx,
            parent,
            children,
            single=config.mode == "single",
            polish=config.polish,
            max_rounds=config.max_rounds,
        )
        # -- MoveRoot handoff state (cleared by the ack, not by round reset) --
        self.migration = RootMigration()

    # -- coordinator: MoveRoot path reversal ------------------------------

    def _round_mode(self) -> str:
        return "single" if self.single else "concurrent"

    def _route_round(self, k: int, agg: DegreeAggregate) -> None:
        if self.single:
            assert agg.elig is not None
            target, count = agg.elig[1], None
        else:
            target, count = agg.max[1], agg.count
        if target == self.node_id:
            self._become_round_root(k, count)
            return
        self.is_coordinator = False
        self._pass_root(MoveRoot(k=k, target=target, count=count, round=self.round_index))

    def _pass_root(self, msg: MoveRoot) -> None:
        """Reverse one hop toward the target along the via pointers; we
        stay parentless until the next hop acknowledges (repair: keeps
        parent pointers a forest at every instant)."""
        agg = None if self.search is None else self.search.aggregate
        via = (
            None
            if agg is None
            else (agg.via_elig if self.single else agg.via_max)
        )
        if via is None:
            raise ProtocolError(f"{self.node_id}: MoveRoot with no via pointer")
        self.children.discard(via)
        self.migration.depart(via)
        self.send(via, msg)

    def _on_move_root(self, sender: int, msg: MoveRoot) -> None:
        # sender was our parent and is reversing: it becomes our child
        if sender != self.parent:
            raise ProtocolError(f"{self.node_id}: MoveRoot from non-parent {sender}")
        self.children.add(sender)
        self.parent = None
        self.send(sender, MoveRootAck())
        if msg.round is not None:
            self.round_index = msg.round
        if self.node_id == msg.target:
            if self.degree() != msg.k:
                raise ProtocolError(
                    f"{self.node_id}: MoveRoot target degree {self.degree()} != k={msg.k}"
                )
            self._become_round_root(msg.k, msg.count)
            return
        self._pass_root(
            MoveRoot(k=msg.k, target=msg.target, count=msg.count, round=msg.round)
        )

    def _on_move_root_ack(self, sender: int) -> None:
        if not self.migration.acknowledged(sender):
            raise ProtocolError(f"{self.node_id}: stray MoveRootAck from {sender}")
        self.parent = sender

    def _become_round_root(self, k: int, count: int | None) -> None:
        """The target max-degree node roots the round and starts cutting."""
        self.is_coordinator = True
        self.barrier = CountdownBarrier(
            1 if self.single else int(count or 1),
            self._round_done,
            name=f"{self.node_id}:round-barrier",
        )
        self.improved_count = 0
        self._act_as_cutter(k)
        # the root is a member of its own pseudo-fragment (self, self) so
        # cousin waves aimed at it get well-formed replies
        self._member_init(k, (self.node_id, self.node_id), origin=None)


MDSTProcess._DISPATCH = {
    **ImprovementProcess._DISPATCH,
    MoveRoot: MDSTProcess._on_move_root,
    MoveRootAck: lambda self, sender, msg: self._on_move_root_ack(sender),
}
