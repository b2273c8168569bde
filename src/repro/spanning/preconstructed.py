"""Centralized (reference / adversarial) initial spanning trees.

The paper's round count is k − k* + 1 where k is the *initial* tree's
degree, so experiments need initial trees across the whole quality
spectrum — from the DFS-like low-degree trees to deliberately terrible
high-degree ones ("of course we can hope to change a bit the algorithm of
ST construction in order to obtain a not so bad k", §4.2). These builders
run centrally (they model an arbitrary pre-existing tree, not a protocol)
and are exact about what they produce.
"""

from __future__ import annotations

from collections import deque

from ..errors import NotConnectedError
from ..graphs.graph import Graph
from ..graphs.traversal import bfs_parents, dfs_parents, is_connected, spanning_forest
from ..graphs.trees import RootedTree
from ..rng import substream

__all__ = [
    "bfs_tree",
    "dfs_tree",
    "greedy_hub_tree",
    "random_spanning_tree",
    "kruskal_mst",
]


def _require_connected(graph: Graph) -> None:
    if not is_connected(graph):
        raise NotConnectedError("spanning tree requires a connected graph")


def bfs_tree(graph: Graph, root: int | None = None) -> RootedTree:
    """Deterministic BFS tree (smallest-id tie-breaking)."""
    _require_connected(graph)
    r = min(graph.nodes()) if root is None else root
    return RootedTree(r, bfs_parents(graph, r))


def dfs_tree(graph: Graph, root: int | None = None) -> RootedTree:
    """Deterministic DFS tree — typically low degree."""
    _require_connected(graph)
    r = min(graph.nodes()) if root is None else root
    return RootedTree(r, dfs_parents(graph, r))


def greedy_hub_tree(graph: Graph, root: int | None = None) -> RootedTree:
    """Adversarially *bad* tree: grow from the highest-degree node,
    always expanding the frontier node with the most unattached neighbors
    and attaching **all** of them at once — concentrates degree into hubs,
    maximizing the initial k the MDegST protocol must repair.
    """
    _require_connected(graph)
    if root is None:
        root = max(graph.nodes(), key=lambda u: (graph.degree(u), -u))
    parents: dict[int, int | None] = {root: None}
    frontier = [root]
    while len(parents) < graph.n:
        # pick the frontier node with most unattached neighbors
        frontier = [u for u in frontier if any(v not in parents for v in graph.neighbors(u))]
        pick = max(
            frontier,
            key=lambda u: (sum(1 for v in graph.neighbors(u) if v not in parents), -u),
        )
        new = [v for v in sorted(graph.neighbors(pick)) if v not in parents]
        for v in new:
            parents[v] = pick
        frontier.remove(pick)
        frontier.extend(new)
    return RootedTree(root, parents)


def random_spanning_tree(graph: Graph, seed: int, root: int | None = None) -> RootedTree:
    """Uniform-ish random spanning tree via random-order Kruskal
    (union-find over a shuffled edge list)."""
    _require_connected(graph)
    rng = substream(seed, f"rst:{graph.n}:{graph.m}")
    edges = graph.edges()
    order = rng.permutation(len(edges))
    chosen = spanning_forest(graph, (edges[int(idx)] for idx in order))
    r = min(graph.nodes()) if root is None else root
    return _root_edges(r, chosen)


def kruskal_mst(graph: Graph, root: int | None = None) -> RootedTree:
    """Reference MST under the same tie-broken weights as distributed GHS
    — the test oracle for :mod:`repro.spanning.ghs`."""
    _require_connected(graph)
    edges = sorted(
        graph.edges(), key=lambda e: (graph.weight(*e), e[0], e[1])
    )
    r = min(graph.nodes()) if root is None else root
    return _root_edges(r, spanning_forest(graph, edges))


def _root_edges(root: int, edges: list[tuple[int, int]]) -> RootedTree:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    adj.setdefault(root, [])
    parents: dict[int, int | None] = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in parents:
                parents[v] = u
                queue.append(v)
    return RootedTree(root, parents)
