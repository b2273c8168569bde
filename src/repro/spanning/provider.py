"""Unified entry point for initial spanning-tree construction.

``build_spanning_tree(graph, method=...)`` runs either a *distributed*
construction on the simulator (``"echo"``, ``"dfs"``, ``"ghs"``) or a
*centralized* reference/adversarial one (``"bfs"``, ``"cdfs"``,
``"greedy_hub"``, ``"random"``, ``"mst"``), returning a
:class:`~repro.spanning.base.SpanningTreeOutcome` either way. This is the
startup process of the paper's §3.1 packaged as one API.
"""

from __future__ import annotations

from ..errors import NotConnectedError, ReproError
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

__all__ = ["build_spanning_tree", "DISTRIBUTED_METHODS", "CENTRALIZED_METHODS"]

DISTRIBUTED_METHODS = ("echo", "dfs", "ghs", "election")
CENTRALIZED_METHODS = ("bfs", "cdfs", "greedy_hub", "random", "mst")


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
        One of :data:`DISTRIBUTED_METHODS` (simulated protocols, metrics
        reported) or :data:`CENTRALIZED_METHODS` (direct constructions,
        ``report=None``).
    root:
        Initiator / root for rooted methods; defaults to the minimum
        identity. GHS ignores it (its root emerges from the protocol).
    seed:
        Seed for the delay model and randomized constructions.
    delay:
        Link delay model for distributed methods (default unit delays).
    """
    if graph.n == 0:
        raise ReproError("cannot build a spanning tree of an empty graph")
    if not is_connected(graph):
        raise NotConnectedError("graph must be connected")
    if graph.n == 1:
        only = graph.nodes()[0]
        return SpanningTreeOutcome(tree=RootedTree(only, {}), report=None)

    if method in CENTRALIZED_METHODS:
        if method == "bfs":
            tree = bfs_tree(graph, root)
        elif method == "cdfs":
            tree = dfs_tree(graph, root)
        elif method == "greedy_hub":
            tree = greedy_hub_tree(graph, root)
        elif method == "random":
            tree = random_spanning_tree(graph, seed, root)
        else:
            tree = kruskal_mst(graph, root)
        return SpanningTreeOutcome(tree=tree, report=None)

    if method not in DISTRIBUTED_METHODS:
        raise ReproError(
            f"unknown method {method!r}; choose from "
            f"{DISTRIBUTED_METHODS + CENTRALIZED_METHODS}"
        )
    initiator = min(graph.nodes()) if root is None else root
    if method == "echo":
        factory = make_echo_factory(initiator)
    elif method == "dfs":
        factory = make_dfs_factory(initiator)
    elif method == "election":
        # no designated initiator: leader election by extinction
        factory = ExtinctionProcess
    else:
        factory = make_ghs_factory(graph)
    net = Network(graph, factory, delay=delay, seed=seed, trace=trace)
    report = net.run()
    # the startup protocol must terminate by process (§3.1): the read-back
    # raises StallError for a node that never halted, so the run itself
    # stays on the fast drive loop
    tree = extract_tree(net, graph)
    return SpanningTreeOutcome(tree=tree, report=report)
