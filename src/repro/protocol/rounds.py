"""The improvement round shared by every registered MDST algorithm.

Both the Blin–Butelle protocol (:mod:`repro.mdst.node`) and the FR-style
protocol (:mod:`repro.algorithms.fr_local`) run the same round from §3.2
of the paper, driven by a coordinator:

1. **SearchDegree** — ``Search`` broadcast down the tree; ``DegreeReport``
   convergecast of :class:`DegreeAggregate` (max degree k, minimum-id
   holder, holder count, the same aggregate over non-stuck nodes, and
   *via* pointers to each winner);
2. **route** — the coordinator reaches the target max-degree node;
3. **Cut + BFS** — the cutter cuts its tree edges and each fragment
   floods ``BfsWave`` carrying its identity (cutter, cut child); replies
   across non-tree edges (``CousinReply``) carry the replier's degree,
   and candidates — non-tree edges with both endpoint degrees ≤ k−2
   joining two different fragments of the same cutter — aggregate back
   to the cutter with ``WaveEcho``;
4. **Choose + exchange** — the cutter picks the candidate minimizing
   (max endpoint degree, ids) and commits it with the
   :class:`~repro.protocol.exchange.ExchangeMixin` handshake;
5. **Barrier** — every cutter reports ``ImproveReport`` to the
   coordinator, which starts the next round or broadcasts ``Terminate``.

:class:`ImprovementProcess` owns steps 1–5 once. A subclass supplies
only the policies where algorithms differ:

* **where the coordinator sits** — :meth:`~ImprovementProcess._route_round`
  (walk the root to the target, or send it an order) plus the
  subclass's own routing messages and :meth:`~ImprovementProcess._round_mode`;
* **which way the fragment wave goes** — ``BOTH_WAYS``: down from the
  cut (a cutter cuts its children and each fragment echoes to its live
  parent), or both ways (the cutter cuts its parent edge too, each
  member floods every tree edge but the one the wave came from and
  echoes back along it, ``wave_origin``, and a candidate must not be
  booked through the cutter's parent);
* **the round-end rule** — data, not code: ``single`` (one cutter per
  round; otherwise every max-degree node a wave reaches cuts too) and
  ``polish`` (after a fruitless concurrent round, continue single);
  :meth:`~ImprovementProcess._open_round` adds per-round coordinator
  setup;
* **the send order** over peer sets — :meth:`~ImprovementProcess._order`.

Policy hooks sit at round-level points (once per node per round); the
wave and cousin handlers, which run on most deliveries, call none and
read one class attribute. The
bookkeeping of each step is delegated to the primitives, in the same
order for every algorithm, so the causal sections they ``stamp()`` are
the same too.

This module imports the message vocabulary from
:mod:`repro.mdst.messages`, so :mod:`repro.protocol` does not re-export
it: import :class:`ImprovementProcess` from here.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .._mutation import mutation_active
from ..errors import ProtocolError
from ..mdst.messages import (
    BfsWave,
    ChildAck,
    ChildMsg,
    CousinReply,
    Cut,
    DegreeReport,
    ExchangeDone,
    FlipBack,
    ImproveReport,
    Search,
    Terminate,
    Update,
    WaveEcho,
)
from ..sim.messages import Message
from ..sim.node import NodeContext, Process
from .convergecast import Convergecast
from .exchange import ExchangeMixin
from .phases import CountdownBarrier
from .wave import WaveEchoTracker

__all__ = [
    "PARENT_SIDE",
    "Agg",
    "DegreeAggregate",
    "FragId",
    "ImprovementProcess",
    "process_factory",
]

#: fragment identity = (cutter, cut child)
FragId = tuple[int, int]
#: aggregate = (degree, node-id); "better" = higher degree, then lower id
Agg = tuple[int, int]

#: sentinel cut-child identity of a parent-side fragment. Node identities
#: are non-negative, so it never collides with a real cut child.
PARENT_SIDE = -1


def _better(a: Agg | None, b: Agg | None) -> bool:
    """True iff aggregate *a* beats *b* (higher degree, then lower id)."""
    if a is None:
        return False
    if b is None:
        return True
    return (a[0], -a[1]) > (b[0], -b[1])


class DegreeAggregate:
    """Pluggable SearchDegree aggregation for the tree convergecast.

    Tracks the subtree's (max degree, min-id holder) aggregate, the
    holder count (concurrent-mode barrier), the same aggregate restricted
    to non-stuck nodes (single-mode target selection), and *via* pointers
    recording which child reported each winner — the routing state the
    coordinator's walk to the target follows afterwards.
    """

    __slots__ = ("max", "count", "elig", "via_max", "via_elig")

    def __init__(self, own: Agg, stuck: bool) -> None:
        self.max: Agg = own
        self.count = 1
        self.elig: Agg | None = None if stuck else own
        self.via_max: int | None = None  # None = self
        self.via_elig: int | None = None

    def absorb(self, child: int, msg: DegreeReport) -> None:
        sub: Agg = (msg.deg, msg.node)
        if sub[0] > self.max[0]:
            self.count = msg.count or 0
        elif sub[0] == self.max[0]:
            self.count += msg.count or 0
        if _better(sub, self.max):
            self.max = sub
            self.via_max = child
        if msg.elig_deg is not None and msg.elig_node is not None:
            esub: Agg = (msg.elig_deg, msg.elig_node)
            if _better(esub, self.elig):
                self.elig = esub
                self.via_elig = child


class ImprovementProcess(ExchangeMixin, Process):
    """One network node running an improvement-round protocol.

    Subclasses pass the round-end rule (``single``, ``polish``) to the
    constructor, set the class attributes below, extend ``_DISPATCH``
    with their routing messages and override the policy hooks.
    """

    #: prefix of the trackers' diagnostic names (``{id}:{TAG}wave``; the
    #: trackers format them only when they raise)
    TAG = ""
    #: which way the fragment wave goes (see the module docstring)
    BOTH_WAYS = False
    #: ProtocolError text for a WaveEcho no wave expects; kept per
    #: algorithm because fuzz coverage signatures carry error texts
    STRAY_ECHO = "{node}: unexpected WaveEcho from {sender}"

    def __init__(
        self,
        ctx: NodeContext,
        parent: int | None,
        children: Iterable[int],
        *,
        single: bool,
        polish: bool,
        target_degree: int,
        max_rounds: int | None,
    ) -> None:
        super().__init__(ctx)
        # keep the attribute count low: fault and churn wrappers add two,
        # and CPython's compact shared-key instance storage ends near 28
        # -- tree view (mutates across rounds) --
        self.parent = parent
        self.children = set(children)
        # -- round-end rule --
        self.single = single
        self.polish = polish
        self.target_degree = target_degree
        self.max_rounds = max_rounds
        # -- cross-round flags --
        self.stuck = False
        self.round_index = 0
        # -- coordinator state (valid while this node drives the round) --
        self.is_coordinator = False
        self.barrier: CountdownBarrier | None = None
        self.improved_count = 0
        # -- per-round state --
        self._reset_round_state()

    def _reset_round_state(self) -> None:
        # SearchDegree convergecast (None until the round's Search arrives)
        self.search: Convergecast | None = None
        # fragment membership wave (unarmed until a fragment id is adopted)
        self.frag: FragId | None = None
        self.round_k = 0
        self.got_cut = False
        self.wave = WaveEchoTracker(self.TAG + "wave", self.ctx.node_id)
        self.wave_origin: int | None = None  # tree peer the wave came from
        # cutter role (the cutter aggregates its cut fragments' echoes)
        self.is_cutter = False
        self.cutter_k = 0
        self.cutter_wave = WaveEchoTracker(self.TAG + "cutter", self.ctx.node_id)
        self.awaiting_exchange = False
        # exchange endpoint state
        self.pending_attach: int | None = None

    def degree(self) -> int:
        """Current tree degree (children + parent edge)."""
        return len(self.children) + (0 if self.parent is None else 1)

    def _tree_peers(self) -> set[int]:
        peers = set(self.children)
        if self.parent is not None:
            peers.add(self.parent)
        return peers

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------

    @staticmethod
    def _order(peers: Iterable[int]) -> Iterable[int]:
        """Send order over a peer set (default: the set's own order)."""
        return peers

    def _open_round(self) -> None:
        """Coordinator setup when a round starts, before its Search."""

    def _round_mode(self) -> str:
        """The ``mode`` of the round's ``round`` mark."""
        raise NotImplementedError

    def _route_round(self, k: int, agg: DegreeAggregate) -> None:
        """Coordinator: the search found work at degree *k*; reach the
        target named by *agg* and make it cut."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        if self.parent is None:
            self._begin_round(reset=False)

    def on_message(self, sender: int, msg: Message) -> None:
        handler = self._DISPATCH.get(msg.__class__) or self._dispatch_lookup(msg)
        if handler is None:  # pragma: no cover - defensive
            raise ProtocolError(
                f"{type(self).__name__} got unknown message {msg!r}"
            )
        handler(self, sender, msg)

    def _send_up(self, msg: Message, sender: int | None = None) -> None:
        """Send *msg* (forwarded from *sender*, if any) to the parent."""
        if self.parent is None:
            origin = "" if sender is None else f" from {sender}"
            raise ProtocolError(
                f"{self.node_id}: {type(msg).__name__}{origin} but no parent"
                " to send it to"
            )
        self.send(self.parent, msg)

    # ------------------------------------------------------------------
    # phase 1: SearchDegree
    # ------------------------------------------------------------------

    def _begin_round(self, reset: bool) -> None:
        """Coordinator starts a round: broadcast Search, await reports."""
        self.round_index += 1
        if self.max_rounds is not None and self.round_index > self.max_rounds:
            self.ctx.mark("capped", self.round_index)
            self._terminate_all()
            return
        if reset:
            self.stuck = False
        self._reset_round_state()
        self.is_coordinator = True
        self.improved_count = 0
        self._open_round()
        self._broadcast_search(reset)

    def _on_search(self, sender: int, msg: Search) -> None:
        if sender != self.parent:
            raise ProtocolError(f"{self.node_id}: Search from non-parent {sender}")
        self._reset_round_state()
        self.single = msg.single
        if msg.reset:
            self.stuck = False
        self._broadcast_search(msg.reset)

    def _broadcast_search(self, reset: bool) -> None:
        """Seed the convergecast with this node's own degree, forward the
        Search and open the convergecast."""
        self.search = search = Convergecast(
            DegreeAggregate((self.degree(), self.node_id), stuck=self.stuck),
            self.children,
            on_complete=self._search_complete,
            name=self.TAG + "search",
            owner=self.ctx.node_id,
        )
        for c in self._order(self.children):
            self.send(c, Search(reset=reset, single=self.single))
        search.open()

    def _on_degree_report(self, sender: int, msg: DegreeReport) -> None:
        if self.search is None:
            raise ProtocolError(
                f"{self.node_id}: unexpected DegreeReport from {sender}"
            )
        self.search.absorb(sender, msg)

    def _search_complete(self, agg: DegreeAggregate) -> None:
        """Subtree aggregation done — report up, or act as coordinator."""
        if self.is_coordinator:
            self._finish_search(agg)
            return
        if self.single:
            elig = agg.elig
            msg = DegreeReport(
                deg=agg.max[0],
                node=agg.max[1],
                elig_deg=None if elig is None else elig[0],
                elig_node=None if elig is None else elig[1],
            )
        else:
            msg = DegreeReport(deg=agg.max[0], node=agg.max[1], count=agg.count)
        self._send_up(msg)

    def _finish_search(self, agg: DegreeAggregate) -> None:
        """Coordinator: aggregation done — route the round or terminate."""
        k = agg.max[0]
        if k <= self.target_degree or (
            # every maximum-degree node is known stuck: local optimum
            self.single and (agg.elig is None or agg.elig[0] < k)
        ):
            self.ctx.mark("final_k", k)
            self._terminate_all()
            return
        self.ctx.mark(
            "round",
            {
                "index": self.round_index,
                "k": k,
                "cutters": 1 if self.single else agg.count,
                "mode": self._round_mode(),
            },
        )
        self._route_round(k, agg)

    # ------------------------------------------------------------------
    # phase 3: Cut + BFS waves
    # ------------------------------------------------------------------

    def _act_as_cutter(self, k: int) -> None:
        self.is_cutter = True
        self.cutter_k = k
        self.cutter_wave.arm(
            echo=self._tree_peers() if self.BOTH_WAYS else self.children, cross=()
        )
        for c in self._order(self.children):
            self.send(c, Cut(k=k, cutter=self.node_id))
        # choosing waits for _member_init (which always follows): the
        # cutter's own cross set isn't known yet at this point

    def _on_cut(self, sender: int, msg: Cut) -> None:
        if sender != self.parent:
            raise ProtocolError(f"{self.node_id}: Cut from non-parent {sender}")
        self.got_cut = True
        self._member_init(msg.k, (msg.cutter, self.node_id), sender)

    def _on_wave(self, sender: int, msg: BfsWave) -> None:
        if msg.tree:
            if self.BOTH_WAYS:
                if sender not in self._tree_peers():
                    raise ProtocolError(
                        f"{self.node_id}: tree wave from non-tree-peer {sender}"
                    )
            elif sender != self.parent:
                raise ProtocolError(
                    f"{self.node_id}: tree wave from non-parent {sender}"
                )
            self._member_init(msg.k, (msg.frag_root, msg.frag_child), sender)
        elif self.frag is None:
            self.wave.defer(sender)
        else:
            self._handle_cousin(sender)

    def _member_init(self, k: int, frag: FragId, origin: int | None) -> None:
        """Adopt a fragment identity and flood the wave; a cutter does not
        forward it over the tree edges it cut."""
        # concurrent mode: every maximum-degree node a wave reaches cuts too
        if not self.single and self.degree() == k and not self.is_cutter:
            self._act_as_cutter(k)
        if self.frag is not None:
            raise ProtocolError(f"{self.node_id}: second fragment id in one round")
        self.frag = frag
        self.round_k = k
        self.wave_origin = origin
        if self.is_cutter:
            onward: Iterable[int] = ()
        elif self.BOTH_WAYS:
            onward = self._order(self._tree_peers() - {origin})
        else:
            onward = self._order(self.children)
        # non-tree neighbours, in the sorted order of the neighbour tuple
        children, parent = self.children, self.parent
        cross = [v for v in self.ctx.neighbors if v not in children and v != parent]
        self.wave.arm(echo=onward, cross=cross)
        if onward:
            tree_wave = BfsWave(k=k, frag_root=frag[0], frag_child=frag[1], tree=True)
            for t in onward:
                self.send(t, tree_wave)
        cross_wave = BfsWave(k=k, frag_root=frag[0], frag_child=frag[1], tree=False)
        for t in cross:
            self.send(t, cross_wave)
        for s in self.wave.take_deferred():
            self._handle_cousin(s)
        self._maybe_echo()
        self._maybe_cutter_choose()

    def _handle_cousin(self, sender: int) -> None:
        """Cross-edge wave: always answer with our identity and degree
        (see :class:`~repro.mdst.messages.CousinReply` for why the
        paper's ignore-larger-identity optimization is dropped)."""
        mine = self.frag
        assert mine is not None
        self.send(
            sender,
            CousinReply(frag_root=mine[0], frag_child=mine[1], deg=self.degree()),
        )

    def _on_cousin_reply(self, sender: int, msg: CousinReply) -> None:
        self.wave.cross_from(sender)
        mine = self.frag
        assert mine is not None
        other = msg.frag_child
        k = self.round_k
        # the smaller fragment identity books the candidate (§3.2.4), and
        # only between fragments of the same cutter (see MDSTConfig); the
        # PARENT_SIDE (-1) fragment sorts last, so a candidate into it is
        # booked (and re-rooted) on the child side
        if (
            (other > mine[1] >= 0 or other == PARENT_SIDE != mine[1])
            and msg.frag_root == mine[0]
            and self.degree() <= k - 2
            and msg.deg <= k - 2
        ):
            cand = (max(self.degree(), msg.deg), self.node_id, sender)
            self.wave.consider(cand, via=None)
        self._maybe_echo()
        self._maybe_cutter_choose()

    def _maybe_echo(self) -> None:
        """All expected replies in → report the subtree's best candidate
        (exactly once per round)."""
        to = self.wave_origin if self.BOTH_WAYS else self.parent
        if to is None or not self.wave.finish_once():
            return
        best = self.wave.best
        if best is None:
            self.send(to, WaveEcho(local=None, remote=None, deg=None))
        else:
            deg, local, remote = best
            self.send(to, WaveEcho(local=local, remote=remote, deg=deg))

    def _on_wave_echo(self, sender: int, msg: WaveEcho) -> None:
        if self.is_cutter and sender in self.cutter_wave.expected_echo:
            # a cut fragment reporting its candidate
            self.cutter_wave.echo_from(sender)
            if msg.local is not None:
                assert msg.remote is not None and msg.deg is not None
                self.cutter_wave.consider(
                    (msg.deg, msg.local, msg.remote), via=sender
                )
            self._maybe_cutter_choose()
            return
        if sender not in self.wave.expected_echo:
            raise ProtocolError(self.STRAY_ECHO.format(node=self.node_id, sender=sender))
        self.wave.echo_from(sender)
        if msg.local is not None:
            assert msg.remote is not None and msg.deg is not None
            self.wave.consider((msg.deg, msg.local, msg.remote), via=sender)
        self._maybe_echo()

    # ------------------------------------------------------------------
    # phase 4: Choose + exchange
    # ------------------------------------------------------------------

    def _maybe_cutter_choose(self) -> None:
        """Choose once both drain: cut fragments' echoes AND this cutter's
        own cross replies. A cutter that chose while its own CousinReply
        was still in flight would let the round advance under the reply,
        which then hits the next round's fresh state as "unexpected"."""
        if not self.is_cutter:
            return
        cw = self.cutter_wave
        if cw.echoed or cw.expected_echo:
            return
        # the "skip_cutter_gate" mutation re-opens the cross-reply race
        # for the exploration self-test (see repro._mutation)
        if self.wave.expected_cross and not mutation_active("skip_cutter_gate"):
            return
        cw.echoed = True
        self._cutter_choose()

    def _cutter_choose(self) -> None:
        best = self.cutter_wave.best
        if best is None:
            self._cutter_finish(improved=False)
            return
        deg, local, remote = best
        via = self.cutter_wave.via_best
        if via is None or (self.BOTH_WAYS and via == self.parent):
            raise ProtocolError(
                f"{self.node_id}: candidate booked on the parent side"
            )
        if deg > self.cutter_k - 2:
            raise ProtocolError(
                f"cutter {self.node_id}: candidate degree {deg} > k-2"
            )
        self.awaiting_exchange = True
        self.send(via, Update(local=local, remote=remote))

    # Update routing, attach/flip handshake and ExchangeDone handling come
    # from ExchangeMixin (repro.protocol.exchange).

    def _exchange_finished(self) -> None:
        self._cutter_finish(improved=True)

    def _cutter_finish(self, improved: bool) -> None:
        self.is_cutter = False
        if self.single and not improved:
            self.stuck = True
        if self.is_coordinator:
            self._collect(improved)
        else:
            self._send_up(ImproveReport(improved=improved))

    # ------------------------------------------------------------------
    # phase 5: barrier and round transition
    # ------------------------------------------------------------------

    def _on_improve_report(self, sender: int, msg: ImproveReport) -> None:
        if self.is_coordinator:
            self._collect(msg.improved)
        else:
            self._send_up(ImproveReport(improved=msg.improved), sender)

    def _collect(self, improved: bool) -> None:
        self.improved_count += int(improved)
        if self.barrier is None:
            raise ProtocolError(f"{self.node_id}: round report with no barrier")
        self.barrier.arrive()

    def _round_done(self) -> None:
        self.ctx.mark(
            "round_end",
            {"index": self.round_index, "improved": self.improved_count},
        )
        improved = self.improved_count > 0
        if improved or self.single:
            # improvements invalidate stuck flags (the tree changed); a
            # stuck single target excludes itself from the next eligible
            # aggregate, and _finish_search terminates once all are stuck
            self._begin_round(reset=improved)
        elif self.polish:
            # concurrent phase exhausted: switch to single-target polish
            self.single = True
            self._begin_round(reset=False)
        else:
            # the coordinator cut this round at k and keeps no parent
            # all round, so no Search has reset its cutter_k since
            self.ctx.mark("final_k", self.cutter_k)
            self._terminate_all()

    def _terminate_all(self) -> None:
        for c in self.children:
            self.send(c, Terminate())
        self.halt()


# Dispatch table (engine v2): one dict get per delivery instead of an
# isinstance chain. Handlers that ignore part of the uniform
# (self, sender, msg) delivery signature get a thin adapter. Subclasses
# copy it and add their routing messages.
ImprovementProcess._DISPATCH = {
    Search: ImprovementProcess._on_search,
    DegreeReport: ImprovementProcess._on_degree_report,
    Cut: ImprovementProcess._on_cut,
    BfsWave: ImprovementProcess._on_wave,
    CousinReply: ImprovementProcess._on_cousin_reply,
    WaveEcho: ImprovementProcess._on_wave_echo,
    Update: ImprovementProcess._on_update,
    ChildMsg: lambda self, sender, msg: self._on_child(sender),
    ChildAck: lambda self, sender, msg: self._on_child_ack(sender),
    FlipBack: lambda self, sender, msg: self._on_flip_back(sender),
    ExchangeDone: lambda self, sender, msg: self._on_exchange_done(sender),
    ImproveReport: ImprovementProcess._on_improve_report,
    Terminate: lambda self, sender, msg: self._terminate_all(),
}


def process_factory(
    cls: type[ImprovementProcess],
    tree_parents: dict[int, int | None],
    **options,
) -> Callable[[NodeContext], ImprovementProcess]:
    """Factory closure binding the initial tree (and *options*, passed to
    every node's constructor)."""
    children: dict[int, set[int]] = {u: set() for u in tree_parents}
    for u, p in tree_parents.items():
        if p is not None:
            children[p].add(u)

    def factory(ctx: NodeContext) -> ImprovementProcess:
        return cls(
            ctx,
            parent=tree_parents[ctx.node_id],
            children=children[ctx.node_id],
            **options,
        )

    return factory
