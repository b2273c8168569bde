"""Distributed Fürer–Raghavachari-style local improvement (``fr_local``).

A second distributed MDST algorithm, in the spirit of the sequential
local-improvement scheme of Fürer & Raghavachari (reference [3] of the
paper) and of later distributed treatments (Dinitz–Halldórsson;
Lavault & Valencia-Pabon, see PAPERS.md): a *fixed* coordinator — the
initial tree root — sequences rounds, and each round executes one F-R
improvement step at the currently worst vertex.

The round itself is :class:`~repro.protocol.rounds.ImprovementProcess`,
shared with the Blin–Butelle protocol; :class:`FRProcess` overrides its
policy hooks:

* **where the coordinator sits** (``_route_round``) — nowhere new: the
  coordinator never moves, and the improvement order is routed down the
  recorded via pointers (:class:`ImproveOrder`, two identity-sized
  fields) instead of walking the root there with path reversal;
* **which way the wave goes** (``BOTH_WAYS``) — both ways: the target
  vertex *w* cuts *all* its incident tree edges, including the parent
  edge, so the fragments are exactly the components of T − w and every
  F-R improvement for *w* (a non-tree edge with endpoint degrees ≤ k−2
  joining two different components, i.e. a cycle through *w*) is
  visible in one wave. The parent-side component carries the sentinel
  cut-child identity :data:`PARENT_SIDE`, floods over the tree in every
  direction except the one it arrived from, and echoes back to
  ``wave_origin``. In the candidate-booking order it sorts *last*, so a
  candidate crossing into the parent-side component is always booked —
  and re-rooted — on the child-fragment side, keeping the global root
  in place;
* **the round-end rule** (``single=True``, ``_open_round``,
  ``_collect``) — one F-R step per round: the round barrier is a
  countdown of one, a :class:`~repro.protocol.PhaseSequencer` names the
  ``search`` and ``improve`` phases, and the protocol only terminates
  when *no* maximum-degree vertex admits a direct improvement. That
  fixpoint has no blocking resolution, so it is weaker than the
  witness of :func:`repro.sequential.fr_phase`;
* **the send order** (``_order``) — broadcasts go out in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProtocolError
from ..graphs.graph import Graph
from ..graphs.trees import RootedTree
from ..mdst.algorithm import build_protocol, run_protocol
from ..mdst.messages import BfsWave
from ..mdst.result import MDSTResult
from ..protocol import CountdownBarrier, PhaseSequencer
from ..protocol.rounds import (
    PARENT_SIDE,
    DegreeAggregate,
    ImprovementProcess,
    process_factory,
)
from ..sim.messages import Message
from ..sim.node import NodeContext

__all__ = ["PARENT_SIDE", "ImproveOrder", "FRProcess", "run_fr_local"]


@dataclass(frozen=True, slots=True)
class ImproveOrder(Message):
    """Coordinator → target: execute one improvement step at ``target``
    (routed down the via pointers recorded by the SearchDegree
    convergecast). Two identity-sized fields."""

    k: int
    target: int


class FRProcess(ImprovementProcess):
    """One network node running the FR-style improvement protocol."""

    TAG = "fr-"
    BOTH_WAYS = True
    STRAY_ECHO = "{node}:fr-wave: unexpected echo from {sender}"

    def __init__(
        self,
        ctx: NodeContext,
        parent: int | None,
        children: set[int],
        target_degree: int = 2,
        max_rounds: int | None = None,
    ) -> None:
        super().__init__(
            ctx,
            parent,
            children,
            single=True,
            polish=False,
            target_degree=target_degree,
            max_rounds=max_rounds,
        )
        self.is_coordinator = parent is None  # never migrates
        self.phase = PhaseSequencer(("search", "improve"))

    _order = staticmethod(sorted)

    # -- round-end rule: one F-R step per round ----------------------------

    def _open_round(self) -> None:
        self.phase.reset()  # -> "search"
        self.barrier = CountdownBarrier(
            1, self._round_done, name=f"{self.node_id}:fr-barrier"
        )

    def _collect(self, improved: bool) -> None:
        self.phase.require("improve", "improvement report")
        super()._collect(improved)

    # -- coordinator: fixed, orders routed down the via pointers -----------

    def _round_mode(self) -> str:
        return "fr"

    def _route_round(self, k: int, agg: DegreeAggregate) -> None:
        assert agg.elig is not None
        self.phase.advance()  # -> "improve"
        self._pass_order(k, agg.elig[1])

    def _on_improve_order(self, sender: int, msg: ImproveOrder) -> None:
        if sender != self.parent:
            raise ProtocolError(
                f"{self.node_id}: ImproveOrder from non-parent {sender}"
            )
        self._pass_order(msg.k, msg.target)

    def _pass_order(self, k: int, target: int) -> None:
        """Start the improvement here, or pass the order one hop down the
        eligible via pointer toward *target*."""
        if target == self.node_id:
            self._start_improve(k)
            return
        agg = None if self.search is None else self.search.aggregate
        via = None if agg is None else agg.via_elig
        if via is None:
            raise ProtocolError(
                f"{self.node_id}: ImproveOrder for {target} with no via pointer"
            )
        self.send(via, ImproveOrder(k=k, target=target))

    def _start_improve(self, k: int) -> None:
        """The target vertex cuts *all* its tree edges: child subtrees and
        the parent-side component each become a fragment of T − w."""
        if self.degree() != k:
            raise ProtocolError(
                f"{self.node_id}: improvement target degree {self.degree()} != k={k}"
            )
        self._act_as_cutter(k)
        if self.parent is not None:
            self.send(
                self.parent,
                BfsWave(
                    k=k,
                    frag_root=self.node_id,
                    frag_child=PARENT_SIDE,
                    tree=True,
                ),
            )
        # pseudo-membership so cross probes aimed at the cutter get
        # well-formed replies; shares the parent-side identity, which can
        # never book a candidate (degree k blocks it anyway)
        self._member_init(k, (self.node_id, PARENT_SIDE), origin=None)


FRProcess._DISPATCH = {
    **ImprovementProcess._DISPATCH,
    ImproveOrder: FRProcess._on_improve_order,
}


def make_fr_factory(
    tree_parents: dict[int, int | None],
    target_degree: int = 2,
    max_rounds: int | None = None,
):
    """Factory closure binding the initial tree and knobs."""
    return process_factory(
        FRProcess, tree_parents, target_degree=target_degree, max_rounds=max_rounds
    )


def run_fr_local(
    graph: Graph,
    initial_tree: RootedTree | None = None,
    *,
    max_events: int = 5_000_000,
    **options,
) -> MDSTResult:
    """Run the FR-style local-improvement protocol to termination.

    Same contract as :func:`repro.mdst.algorithm.run_mdst`: returns a
    certified :class:`~repro.mdst.result.MDSTResult` (spanning tree,
    degree never worse than the initial tree's). The keyword *options*
    are those of :func:`build_fr_local`.
    """
    return run_protocol(
        build_fr_local, graph, initial_tree, max_events=max_events, **options
    )


def build_fr_local(
    graph: Graph,
    initial_tree: RootedTree | None = None,
    *,
    mode: str = "concurrent",
    max_rounds: int | None = None,
    **options,
):
    """Build half of :func:`run_fr_local` (same ``(net, finalize)``
    contract as :func:`repro.mdst.algorithm.build_mdst`, whose keyword
    options it takes). ``mode`` is accepted so sweep grids can cross
    algorithms with the mode axis, but the protocol has a single
    schedule."""
    del mode
    return build_protocol(
        graph,
        initial_tree,
        lambda parents: make_fr_factory(parents, max_rounds=max_rounds),
        name="fr_local",
        **options,
    )


def _register() -> None:
    from .registry import Algorithm, register_algorithm

    register_algorithm(
        Algorithm(
            name="fr_local",
            run=run_fr_local,
            description=(
                "Fürer–Raghavachari-style local improvement: fixed "
                "coordinator, one full-fragment improvement step per round"
            ),
            build=build_fr_local,
        )
    )


_register()
