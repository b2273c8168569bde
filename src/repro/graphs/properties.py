"""Structural graph properties used by verification and the exact solver.

Includes the set bound on the optimal spanning-tree degree Δ*, cut-vertex
detection (the set bound's closed form on singletons) and small-n
Hamiltonian-path testing (Δ* = 2 iff a Hamiltonian path exists).
"""

from __future__ import annotations

from collections.abc import Collection, Sequence

from ..errors import GraphError, NotConnectedError
from .graph import Edge, Graph
from .traversal import is_connected, spanning_forest

__all__ = [
    "articulation_points",
    "has_hamiltonian_path",
    "min_degree_lower_bound",
    "set_bound",
]


def _cut_components(graph: Graph) -> dict[int, int]:
    """c(v) for every node: the number of components its removal leaves
    of v's own component, from one iterative Tarjan lowlink pass.

    A DFS child u of v whose subtree cannot reach above v
    (``low[u] >= disc[v]``) is cut off with v gone; v's DFS ancestors
    form one more component unless v is the DFS root. So c(v) ≥ 2
    exactly for the articulation points.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    cut: dict[int, int] = {}
    timer = 0
    for start in graph.nodes():
        if start in disc:
            continue
        parent[start] = None
        disc[start] = low[start] = timer
        timer += 1
        cut[start] = 0
        stack = [(start, iter(graph.neighbors(start)))]
        while stack:
            u, it = stack[-1]
            for v in it:
                if v not in disc:
                    parent[v] = u
                    disc[v] = low[v] = timer
                    timer += 1
                    cut[v] = 1
                    stack.append((v, iter(graph.neighbors(v))))
                    break
                if v != parent[u] and disc[v] < low[u]:
                    low[u] = disc[v]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] >= disc[p]:
                        cut[p] += 1
    return cut


def articulation_points(graph: Graph) -> set[int]:
    """Articulation points (cut vertices): the nodes v with c(v) ≥ 2."""
    return {v for v, c in _cut_components(graph).items() if c >= 2}


def has_hamiltonian_path(graph: Graph, node_limit: int = 20) -> bool:
    """Exact Hamiltonian-path test (Held–Karp bitmask DP, O(2^n · n^2)).

    Refuses graphs above *node_limit* nodes — use
    :mod:`repro.sequential.exact` heuristics beyond that.
    """
    n = graph.n
    if n > node_limit:
        raise GraphError(f"has_hamiltonian_path limited to {node_limit} nodes, got {n}")
    if n == 0:
        return False
    if n == 1:
        return True
    if not is_connected(graph):
        return False
    nodes = graph.nodes()
    index = {u: i for i, u in enumerate(nodes)}
    adj_mask = [0] * n
    for u in nodes:
        for v in graph.neighbors(u):
            adj_mask[index[u]] |= 1 << index[v]
    full = (1 << n) - 1
    # reach[mask] = bitmask of possible end vertices of a path visiting mask
    reach = [0] * (1 << n)
    for i in range(n):
        reach[1 << i] = 1 << i
    for mask in range(1, full + 1):
        ends = reach[mask]
        if not ends:
            continue
        if mask == full:
            return True
        rest = full & ~mask
        e = ends
        while e:
            i = (e & -e).bit_length() - 1
            e &= e - 1
            nxt = adj_mask[i] & rest
            w = nxt
            while w:
                j = (w & -w).bit_length() - 1
                w &= w - 1
                reach[mask | (1 << j)] |= 1 << j
    return bool(reach[full])


def set_bound(
    graph: Graph, S: Collection[int], *, edges: Sequence[Edge] | None = None
) -> int:
    """⌈min_T Σ_{v∈S} deg_T(v) / |S|⌉ over the spanning trees T of the
    connected *graph* (0 for an empty *S*), a lower bound on Δ* as a
    vertex of S has at least the mean tree degree: one Kruskal pass over
    the edges in order of their weight |e ∩ S| ∈ {0, 1, 2}. A caller
    bounding several sets passes *edges*, ``graph.edges()`` sorted once."""
    if not S:
        return 0
    inside = set(S)

    def weight(e: Edge) -> int:
        return (e[0] in inside) + (e[1] in inside)

    if edges is None:
        edges = graph.edges()
    tree = spanning_forest(graph, sorted(edges, key=weight))
    if len(tree) != graph.n - 1:
        raise NotConnectedError("set bound defined for connected graphs")
    return -(-sum(map(weight, tree)) // len(inside))


def min_degree_lower_bound(graph: Graph) -> int:
    """The largest :func:`set_bound` over the singletons and S = V, in
    closed form: a singleton {v} must reach every component of G − v,
    so its bound is c(v), all from one lowlink pass; S = V holds both
    ends of all n − 1 tree edges, so its bound is ⌈2(n−1)/n⌉."""
    if graph.n == 0:
        raise GraphError("empty graph")
    if not is_connected(graph):
        raise NotConnectedError("lower bound defined for connected graphs")
    return max(-(-2 * (graph.n - 1) // graph.n), *_cut_components(graph).values())
