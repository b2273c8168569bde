"""Protocol messages of the distributed MDegST algorithm.

Names follow §3.2 of the paper where a counterpart exists; the repairs,
each documented on its message below, add the round-control messages. Every message carries **at
most four identity-sized fields** — the paper's O(log n) bit claim (C5) —
which the metrics layer audits on every run (experiment T7).

Paper step → message map
------------------------
* SearchDegree   → :class:`Search` (down), :class:`DegreeReport` (up)
* MoveRoot       → :class:`MoveRoot` (path reversal walk)
* Cut            → :class:`Cut`   (⟨cut, k, p⟩)
* BFS            → :class:`BfsWave` (⟨BFS, k, p, p′⟩),
                   :class:`CousinReply` (⟨BFSBack, r, r′, deg⟩),
                   :class:`WaveEcho` (⟨BFSBack …, best edge⟩, also the
                   fragment root's candidate forwarded to its cutter)
* Choose/update  → :class:`Update` (⟨update, e⟩), :class:`ChildMsg`
                   (⟨child⟩), :class:`FlipBack`/:class:`ExchangeDone`
                   (path-reversal commit — a repair;
                   defined by :mod:`repro.protocol.exchange`, the commit
                   machinery shared with the other registered algorithms,
                   and re-exported here as the canonical vocabulary)
* §3.2.6 stop    → :class:`ImproveReport` (improved/stuck toward the root)
* termination    → :class:`Terminate`
"""

from __future__ import annotations

from dataclasses import dataclass

from ..protocol.exchange import (  # noqa: F401 - canonical re-export
    ChildAck,
    ChildMsg,
    ExchangeDone,
    FlipBack,
    Update,
)
from ..sim.messages import Message

__all__ = [
    "Search",
    "DegreeReport",
    "MoveRoot",
    "MoveRootAck",
    "Cut",
    "BfsWave",
    "CousinReply",
    "WaveEcho",
    "Update",
    "ChildMsg",
    "ChildAck",
    "FlipBack",
    "ExchangeDone",
    "ImproveReport",
    "Terminate",
]


@dataclass(frozen=True, slots=True)
class Search(Message):
    """Round start, broadcast down the tree by the current root.

    ``reset`` clears stuck flags (set after an improving round);
    ``single`` selects the operating mode for this round (single-target
    vs concurrent, see :class:`~repro.mdst.config.MDSTConfig`).
    """

    reset: bool
    single: bool


@dataclass(frozen=True, slots=True)
class DegreeReport(Message):
    """Convergecast aggregate of SearchDegree.

    ``deg``/``node``: maximum tree degree in the subtree and its
    minimum-identity holder. ``count``: number of holders (concurrent
    mode barrier). ``elig_deg``/``elig_node``: same aggregate restricted
    to non-stuck nodes (single mode). Unused fields are ``None`` so no
    variant exceeds 4 identity fields.
    """

    deg: int
    node: int
    count: int | None = None
    elig_deg: int | None = None
    elig_node: int | None = None


@dataclass(frozen=True, slots=True)
class MoveRoot(Message):
    """Root relocation step toward ``target`` (path reversal en route).

    ``round`` transfers the coordinator's round counter to the new root.
    """

    k: int
    target: int
    count: int | None = None
    round: int | None = None


@dataclass(frozen=True, slots=True)
class MoveRootAck(Message):
    """Per-hop acknowledgement of :class:`MoveRoot` (repair: the sender
    adopts the next hop as parent only once acknowledged, so parent
    pointers form a forest — never a transient 2-cycle — at every
    observable instant; FIFO delivers the ack before any follow-up
    traffic on the same link)."""


@dataclass(frozen=True, slots=True)
class Cut(Message):
    """⟨cut, k, p⟩ — *cutter* virtually severs the link to this child,
    making the child the root of a fragment."""

    k: int
    cutter: int


@dataclass(frozen=True, slots=True)
class BfsWave(Message):
    """⟨BFS, k, p, p′⟩ — fragment exploration wave; the fragment identity
    is the (cutter, cut-child) pair.

    ``tree`` distinguishes the tree-broadcast copy (parent → child,
    assigns the fragment identity) from the cross-edge copy (cousin
    detection): under asynchronous delays an exchange can re-parent a
    node mid-round, so "sender == my parent" is not a safe classifier.
    """

    k: int
    frag_root: int
    frag_child: int
    tree: bool = False


@dataclass(frozen=True, slots=True)
class CousinReply(Message):
    """⟨BFSBack, r, r′, deg⟩ — reply across a non-tree edge, carrying the
    replier's fragment identity and tree degree.

    Deviation from §3.2.4 case 3: the paper lets the larger-identity
    fragment *ignore* the smaller one's wave. Here **every** cross wave
    is answered (the smaller-identity side still books the candidate), so
    a completed echo proves all cross traffic of the round is consumed —
    without this, stale waves can leak into the next round under
    asynchronous delays (a repair of the paper's BFS step)."""

    frag_root: int
    frag_child: int
    deg: int


@dataclass(frozen=True, slots=True)
class WaveEcho(Message):
    """Upward aggregation of the best outgoing edge of a subtree
    (``None`` triple = no candidate). ``local`` is the endpoint inside
    this fragment, ``remote`` the endpoint outside, ``deg`` the larger of
    the two endpoint degrees (the paper's choice key)."""

    local: int | None
    remote: int | None
    deg: int | None


@dataclass(frozen=True, slots=True)
class ImproveReport(Message):
    """Round outcome of one max-degree node, climbing parent pointers to
    the root (repair §4.1: the round barrier)."""

    improved: bool


@dataclass(frozen=True, slots=True)
class Terminate(Message):
    """Root's final broadcast: the tree is (locally) optimal; halt."""
