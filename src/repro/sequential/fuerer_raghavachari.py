"""Fürer–Raghavachari sequential MDegST approximation (reference [3] of
the paper; SODA'92 / J. Algorithms'94).

Local-improvement algorithm with *blocking resolution*: vertices of degree
k and k−1 are marked; removing them splits the tree into a forest F. A
non-tree edge joining two components of F whose tree cycle contains a
degree-k vertex yields an **improvement** (add the edge, remove a cycle
edge at the degree-k vertex). A joining edge whose cycle contains only
degree-(k−1) marked vertices *unmarks* them and merges the components
(those vertices stop blocking). At fixpoint the still-marked degree-(k−1)
vertices are exactly the set B of Theorem 1, certifying Δ(T) ≤ Δ* + 1.

This is the guaranteed-quality baseline the distributed algorithm is
measured against (experiments T1/T8): the published distributed rule skips
blocking resolution (see :mod:`repro.sequential.local_search`), so the
measured gap between the two is a finding of the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NotConnectedError
from ..graphs.graph import Graph, canonical_edge
from ..graphs.traversal import is_connected
from ..graphs.trees import RootedTree

__all__ = ["FRStats", "fuerer_raghavachari", "find_fr_improvement"]


@dataclass(frozen=True)
class FRStats:
    """Work accounting of one run (for the T8 comparison table)."""

    improvements: int
    unmark_merges: int
    cycle_scans: int


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def add(self, x: int) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def find_fr_improvement(
    graph: Graph, tree: RootedTree, counters: dict[str, int] | None = None
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """One F-R phase: return ``(remove_edge, add_edge)`` reducing some
    maximum-degree vertex, or ``None`` if the tree is a certified
    locally-optimal tree (then Δ(T) ≤ Δ* + 1 by Theorem 1).
    """
    cnt = counters if counters is not None else {}
    k = tree.max_degree()
    if k <= 2:
        return None
    deg = {v: tree.degree(v) for v in tree.nodes()}
    # marked = potential blockers; unmarking only ever helps (k-1 nodes)
    marked = {v for v in tree.nodes() if deg[v] >= k - 1}
    uf = _UnionFind()
    for v in tree.nodes():
        uf.add(v)
    for a, b in tree.edges():
        if a not in marked and b not in marked:
            uf.union(a, b)
    tree_edges = set(tree.edges())
    candidates = [
        (u, v)
        for u, v in graph.edges()
        if (u, v) not in tree_edges and deg[u] <= k - 2 and deg[v] <= k - 2
    ]
    changed = True
    while changed:
        changed = False
        for u, v in candidates:
            if uf.find(u) == uf.find(v):
                continue  # same component: cycle has no *blocking* vertex
            cnt["cycle_scans"] = cnt.get("cycle_scans", 0) + 1
            cycle = tree.path(u, v)
            k_vertex = next((w for w in cycle if deg[w] == k), None)
            if k_vertex is not None:
                # improvement: remove a cycle edge incident to the k-vertex
                i = cycle.index(k_vertex)
                nbr = cycle[i + 1] if i + 1 < len(cycle) else cycle[i - 1]
                cnt["improvements"] = cnt.get("improvements", 0) + 1
                return canonical_edge(k_vertex, nbr), canonical_edge(u, v)
            # only degree-(k-1) blockers on the cycle: unmark and merge
            blockers = [w for w in cycle if w in marked]
            if not blockers:
                # both endpoints already connected through unmarked
                # vertices; just merge bookkeeping
                uf.union(u, v)
                changed = True
                continue
            cnt["unmark_merges"] = cnt.get("unmark_merges", 0) + 1
            for w in blockers:
                marked.discard(w)
            for a, b in zip(cycle, cycle[1:]):
                if a not in marked and b not in marked:
                    uf.union(a, b)
            changed = True
    return None


def fuerer_raghavachari(
    graph: Graph,
    initial_tree: RootedTree | None = None,
    *,
    max_iterations: int | None = None,
) -> tuple[RootedTree, FRStats]:
    """Run F-R local improvement to a certified locally optimal tree.

    Returns the final tree (degree ≤ Δ* + 1) and work statistics.
    """
    if not is_connected(graph):
        raise NotConnectedError("graph must be connected")
    if initial_tree is None:
        from ..spanning.preconstructed import bfs_tree

        initial_tree = bfs_tree(graph)
    tree = initial_tree
    counters: dict[str, int] = {}
    iterations = 0
    while True:
        if max_iterations is not None and iterations >= max_iterations:
            break
        move = find_fr_improvement(graph, tree, counters)
        if move is None:
            break
        remove, add = move
        tree = tree.swapped(remove=remove, add=add)
        iterations += 1
    stats = FRStats(
        improvements=counters.get("improvements", 0),
        unmark_merges=counters.get("unmark_merges", 0),
        cycle_scans=counters.get("cycle_scans", 0),
    )
    return tree, stats
