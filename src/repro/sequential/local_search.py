"""Plain local search — the sequential twin of the *published* distributed
improvement rule (no blocking resolution).

An improvement is a non-tree edge (u, v) with both endpoint degrees
≤ k − 2 whose tree cycle contains a degree-k vertex; the swap removes a
cycle edge at that vertex. The search stops when no such edge exists —
exactly the distributed algorithm's stopping condition, which is weaker
than Fürer–Raghavachari's. Experiment T8 measures the resulting quality
gap.
"""

from __future__ import annotations

from ..errors import NotConnectedError
from ..graphs.graph import Graph
from ..graphs.traversal import is_connected
from ..graphs.trees import RootedTree
from .fuerer_raghavachari import Swap, cycle_swap

__all__ = ["find_simple_improvement", "local_search_mdst"]


def find_simple_improvement(graph: Graph, tree: RootedTree) -> Swap | None:
    """Return ``(remove_edge, add_edge)`` under the published rule, or
    ``None`` when stuck. Deterministic: candidates are scanned in
    (max endpoint degree, edge) order, mirroring the protocol's choice."""
    k = tree.max_degree()
    if k <= 2:
        return None
    deg = {v: tree.degree(v) for v in tree.nodes()}
    tree_edges = set(tree.edges())
    candidates = sorted(
        (
            (max(deg[u], deg[v]), u, v)
            for u, v in graph.edges()
            if (u, v) not in tree_edges and deg[u] <= k - 2 and deg[v] <= k - 2
        ),
    )
    for _dmax, u, v in candidates:
        cycle = tree.path(u, v)
        w = next((x for x in cycle if deg[x] == k), None)
        if w is not None:
            return cycle_swap(cycle, w)
    return None


def local_search_mdst(
    graph: Graph,
    initial_tree: RootedTree | None = None,
    *,
    max_iterations: int | None = None,
) -> tuple[RootedTree, int]:
    """Iterate :func:`find_simple_improvement` to a fixpoint.

    Returns the final tree and the number of swaps applied.
    """
    if not is_connected(graph):
        raise NotConnectedError("graph must be connected")
    if initial_tree is None:
        from ..spanning.preconstructed import bfs_tree

        initial_tree = bfs_tree(graph)
    tree = initial_tree
    swaps = 0
    while max_iterations is None or swaps < max_iterations:
        move = find_simple_improvement(graph, tree)
        if move is None:
            break
        remove, add = move
        tree = tree.swapped(remove=remove, add=add)
        swaps += 1
    return tree, swaps
