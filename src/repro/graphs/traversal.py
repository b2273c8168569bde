"""Sequential graph traversals and connectivity utilities.

These are *centralized* helpers used by generators, verification and the
exact baselines — the distributed BFS/DFS live in :mod:`repro.spanning`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from ..errors import GraphError, NotConnectedError
from .graph import Edge, Graph

__all__ = [
    "bfs_order",
    "bfs_parents",
    "bfs_layers",
    "dfs_order",
    "dfs_parents",
    "connected_components",
    "is_connected",
    "spanning_forest",
    "shortest_path_lengths",
    "eccentricity",
    "diameter",
    "tree_path",
]


def _check_source(graph: Graph, source: int) -> None:
    if not graph.has_node(source):
        raise GraphError(f"unknown source node {source}")


def bfs_order(graph: Graph, source: int) -> list[int]:
    """Nodes reachable from *source* in BFS order (neighbors visited in
    ascending identity order, so the order is deterministic)."""
    _check_source(graph, source)
    seen = {source}
    order = [source]
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in sorted(graph.neighbors(u)):
            if v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)
    return order


def bfs_parents(graph: Graph, source: int) -> dict[int, int | None]:
    """BFS tree as a parent map (``source`` maps to ``None``).

    Only reachable nodes appear in the result.
    """
    _check_source(graph, source)
    parents: dict[int, int | None] = {source: None}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in sorted(graph.neighbors(u)):
            if v not in parents:
                parents[v] = u
                queue.append(v)
    return parents


def bfs_layers(graph: Graph, source: int) -> list[list[int]]:
    """Nodes grouped by BFS distance from *source*."""
    _check_source(graph, source)
    layers: list[list[int]] = [[source]]
    seen = {source}
    frontier = [source]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in sorted(graph.neighbors(u)):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        if nxt:
            layers.append(sorted(nxt))
        frontier = nxt
    return layers


def dfs_order(graph: Graph, source: int) -> list[int]:
    """Nodes reachable from *source* in (iterative) DFS preorder,
    descending into the smallest-identity unvisited neighbor first."""
    _check_source(graph, source)
    order: list[int] = []
    seen: set[int] = set()
    stack = [source]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        order.append(u)
        # push in reverse-sorted order so smallest is popped first
        for v in sorted(graph.neighbors(u), reverse=True):
            if v not in seen:
                stack.append(v)
    return order


def dfs_parents(graph: Graph, source: int) -> dict[int, int | None]:
    """DFS tree as a parent map (``source`` maps to ``None``)."""
    _check_source(graph, source)
    parents: dict[int, int | None] = {source: None}
    stack: list[tuple[int, int]] = [
        (source, v) for v in sorted(graph.neighbors(source), reverse=True)
    ]
    while stack:
        parent, u = stack.pop()
        if u in parents:
            continue
        parents[u] = parent
        for v in sorted(graph.neighbors(u), reverse=True):
            if v not in parents:
                stack.append((u, v))
    return parents


def connected_components(graph: Graph) -> list[set[int]]:
    """Connected components, sorted by their minimum node identity."""
    seen: set[int] = set()
    comps: list[set[int]] = []
    for start in graph.nodes():
        if start in seen:
            continue
        comp = set(bfs_order(graph, start))
        seen |= comp
        comps.append(comp)
    return sorted(comps, key=min)


def is_connected(graph: Graph) -> bool:
    """True iff the graph is non-empty and connected."""
    if graph.n == 0:
        return False
    first = graph.nodes()[0]
    return len(bfs_order(graph, first)) == graph.n


def spanning_forest(graph: Graph, edges: Iterable[Edge]) -> list[Edge]:
    """Kruskal's pass: the *edges*, taken in order, that join two
    components of the forest chosen so far (union-find; it stops at
    n − 1 edges, once the forest spans)."""
    parent = {u: u for u in graph.nodes()}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: list[Edge] = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v))
            if len(chosen) == graph.n - 1:
                break
    return chosen


def shortest_path_lengths(graph: Graph, source: int) -> dict[int, int]:
    """Unweighted shortest-path distance from *source* to every reachable
    node."""
    _check_source(graph, source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def eccentricity(graph: Graph, node: int) -> int:
    """Greatest distance from *node* to any other node (graph must be
    connected)."""
    dist = shortest_path_lengths(graph, node)
    if len(dist) != graph.n:
        raise NotConnectedError("eccentricity requires a connected graph")
    return max(dist.values())


def diameter(graph: Graph) -> int:
    """Diameter of a connected graph (O(n·m); fine for test sizes)."""
    return max(eccentricity(graph, u) for u in graph.nodes())


def tree_path(parents: dict[int, int | None], u: int, v: int) -> list[int]:
    """Path from *u* to *v* in the tree given as a parent map.

    Works by climbing both nodes to the root and splicing at the lowest
    common ancestor. Raises ``GraphError`` for unknown nodes.
    """
    if u not in parents or v not in parents:
        raise GraphError("tree_path: node not in tree")

    def root_path(x: int) -> list[int]:
        path = [x]
        while parents[path[-1]] is not None:
            nxt = parents[path[-1]]
            assert nxt is not None
            path.append(nxt)
        return path

    pu = root_path(u)
    pv = root_path(v)
    su = set(pu)
    # first node of pv that is on pu's root path = LCA
    lca = next(x for x in pv if x in su)
    head = pu[: pu.index(lca) + 1]
    tail = pv[: pv.index(lca)]
    return head + list(reversed(tail))
