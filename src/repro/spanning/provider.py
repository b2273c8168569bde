"""Unified entry point for initial spanning-tree construction.

``build_spanning_tree(graph, method=...)`` runs either a *distributed*
construction on the simulator (``"echo"``, ``"dfs"``, ``"ghs"``,
``"election"``) or a *centralized* reference/adversarial one
(``"bfs"``, ``"cdfs"``, ``"greedy_hub"``, ``"random"``, ``"mst"``),
returning a :class:`~repro.spanning.base.SpanningTreeOutcome` either
way. The names are the keys of :data:`INITIAL_METHODS`. This is the
startup process of the paper's §3.1 packaged as one API.
"""

from __future__ import annotations

from typing import Callable

from ..errors import NotConnectedError, ReproError, lookup
from ..graphs.graph import Graph
from ..graphs.traversal import is_connected
from ..graphs.trees import RootedTree
from ..sim.delays import DelayModel
from ..sim.network import Network
from ..sim.trace import TraceRecorder
from .base import SpanningTreeOutcome, extract_tree
from .dfs_token import make_dfs_factory
from .extinction import ExtinctionProcess
from .flood_bfs import make_echo_factory
from .ghs import make_ghs_factory
from .preconstructed import (
    bfs_tree,
    dfs_tree,
    greedy_hub_tree,
    kruskal_mst,
    random_spanning_tree,
)

__all__ = ["build_spanning_tree", "INITIAL_METHODS"]


def _initiator(graph: Graph, root: int | None) -> int:
    return min(graph.nodes()) if root is None else root


#: Startup construction name -> ``build(graph, root, seed)``, the
#: distributed protocols first (the order ``repro families`` lists). A
#: distributed build returns the per-node process factory the simulator
#: runs; a centralized one returns the tree itself.
INITIAL_METHODS: dict[str, Callable[[Graph, int | None, int], object]] = {
    "echo": lambda graph, root, seed: make_echo_factory(_initiator(graph, root)),
    "dfs": lambda graph, root, seed: make_dfs_factory(_initiator(graph, root)),
    "ghs": lambda graph, root, seed: make_ghs_factory(graph),
    # no designated initiator: leader election by extinction
    "election": lambda graph, root, seed: ExtinctionProcess,
    "bfs": lambda graph, root, seed: bfs_tree(graph, root),
    "cdfs": lambda graph, root, seed: dfs_tree(graph, root),
    "greedy_hub": lambda graph, root, seed: greedy_hub_tree(graph, root),
    "random": lambda graph, root, seed: random_spanning_tree(graph, seed, root),
    "mst": lambda graph, root, seed: kruskal_mst(graph, root),
}


def build_spanning_tree(
    graph: Graph,
    method: str = "ghs",
    *,
    root: int | None = None,
    seed: int = 0,
    delay: DelayModel | None = None,
    trace: TraceRecorder | None = None,
) -> SpanningTreeOutcome:
    """Construct a rooted spanning tree of *graph*.

    Parameters
    ----------
    method:
        A name in :data:`INITIAL_METHODS`: a simulated protocol (metrics
        reported) or a direct construction (``report=None``).
    root:
        Initiator / root for rooted methods; defaults to the minimum
        identity (``greedy_hub``: a maximum-degree vertex). GHS ignores
        it (its root emerges from the protocol).
    seed:
        Seed for the delay model and randomized constructions.
    delay:
        Link delay model for distributed methods (default unit delays).
    """
    build = lookup(INITIAL_METHODS, method, "initial method")
    if graph.n == 0:
        raise ReproError("cannot build a spanning tree of an empty graph")
    if not is_connected(graph):
        raise NotConnectedError("graph must be connected")
    if graph.n == 1:
        only = graph.nodes()[0]
        return SpanningTreeOutcome(tree=RootedTree(only, {}), report=None)

    built = build(graph, root, seed)
    if isinstance(built, RootedTree):
        return SpanningTreeOutcome(tree=built, report=None)
    net = Network(graph, built, delay=delay, seed=seed, trace=trace)
    report = net.run()
    # the startup protocol must terminate by process (§3.1): the read-back
    # raises StallError for a node that never halted, so the run itself
    # stays on the fast drive loop
    tree = extract_tree(net, graph)
    return SpanningTreeOutcome(tree=tree, report=report)
