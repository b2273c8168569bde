"""Fürer–Raghavachari sequential MDegST approximation (reference [3] of
the paper; SODA'92 / J. Algorithms'94).

One **phase** (:func:`fr_phase`) either improves a spanning tree T of
maximum degree k or proves k ≤ Δ* + 1. It marks W = the vertices of
degree k and k−1; removing them splits T into a forest F. A non-tree
edge with both endpoints outside W that joins two components of F closes
a tree cycle through W:

* if the cycle holds a degree-k vertex, the phase returns an
  :class:`Improvement` — add the edge, remove a cycle edge at that
  vertex, after first *relieving* any endpoint of degree k−1;
* otherwise every marked vertex on the cycle has degree k−1. *Blocking
  resolution* unmarks them, which merges their components, and records
  the edge as the one that can later relieve each of them.

When no such edge is left, W satisfies Theorem 1 (no graph edge joins
two components of F) and the phase returns it as a :class:`Witness`.

Why the relief chain is valid: a vertex b unmarked by edge (x, y) had x
and y in two components X, Y of F that did not contain b, and relieving
x or y only swaps edges inside X or Y. So those swaps keep the tree
edges at b, each vertex is the endpoint of at most one edge of the
chain, and no vertex reaches degree k.

:func:`fuerer_raghavachari` iterates phases to a witness; it is the
guaranteed-quality baseline the distributed algorithms are measured
against (experiments T1/T8). The published distributed rule skips
blocking resolution (see :mod:`repro.sequential.local_search`), so the
measured gap between the two is a finding of the reproduction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import NotConnectedError
from ..graphs.graph import Edge, Graph, canonical_edge
from ..graphs.traversal import is_connected
from ..graphs.trees import RootedTree

__all__ = [
    "FRStats",
    "Improvement",
    "Swap",
    "Witness",
    "cycle_swap",
    "fr_phase",
    "fuerer_raghavachari",
]

#: one edge exchange, ``(remove, add)``
Swap = tuple[Edge, Edge]


@dataclass(frozen=True)
class Improvement:
    """An F-R swap chain. Applied in order, each swap keeps a spanning
    tree; the earlier ones relieve degree-(k−1) endpoints of later
    ones, and the last removes an edge at a degree-k vertex. The result
    has fewer degree-k vertices, or a lower maximum degree."""

    swaps: tuple[Swap, ...]

    def apply(self, tree: RootedTree) -> RootedTree:
        for remove, add in self.swaps:
            tree = tree.swapped(remove=remove, add=add)
        return tree


@dataclass(frozen=True)
class Witness:
    """Theorem 1's certificate: removing ``marked`` (W, the degree ≥ k−1
    vertices that blocking resolution left marked) splits the tree into c
    components that no graph edge joins, so every spanning tree has
    ≥ |W| + c − 1 edges at W and W's set bound is ≥ k − 1."""

    marked: frozenset[int]


@dataclass(frozen=True)
class FRStats:
    """Work accounting of one run (for the T8 comparison table)."""

    improvements: int


def cycle_swap(cycle: list[int], at: int) -> Swap:
    """Close the tree path *cycle* with the edge between its ends and
    remove the cycle edge leaving *at* toward the path's end (toward its
    start when *at* is the end)."""
    i = cycle.index(at)
    nbr = cycle[i + 1] if i + 1 < len(cycle) else cycle[i - 1]
    return canonical_edge(at, nbr), canonical_edge(cycle[0], cycle[-1])


def fr_phase(graph: Graph, tree: RootedTree) -> Improvement | Witness:
    """One complete F-R phase on *tree*: an :class:`Improvement`, or a
    :class:`Witness` that k ≤ Δ* + 1.

    Candidates are scanned in ``graph.edges()`` order, then the edges
    that blocking resolution makes eligible, in unmarking order. The
    components of T − W live in a union-find, so the phase costs
    O(m α(n)) plus one tree path per resolved cycle.
    """
    deg = {v: tree.degree(v) for v in tree.nodes()}
    k = max(deg.values())
    marked = {v for v, d in deg.items() if d >= k - 1}
    parent = {v: v for v in deg}  # union-find over the components of T − W

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree_edges = set(tree.edges())
    for a, b in tree_edges:
        if a not in marked and b not in marked:
            parent[find(a)] = find(b)
    queue = deque(
        (u, v)
        for u, v in graph.edges()
        if (u, v) not in tree_edges and u not in marked and v not in marked
    )
    relief: dict[int, Swap] = {}
    while queue:
        u, v = queue.popleft()
        if find(u) == find(v):
            continue
        cycle = tree.path(u, v)
        top = next((w for w in cycle if deg[w] == k), None)
        if top is not None:
            return Improvement(_relief_chain(cycle_swap(cycle, top), relief))
        for b in cycle:
            if b not in marked:
                continue
            marked.discard(b)
            relief[b] = cycle_swap(cycle, b)
            for c in sorted(graph.neighbors(b)):
                if c in marked:
                    continue
                edge = canonical_edge(b, c)
                if edge in tree_edges:
                    parent[find(b)] = find(c)
                else:
                    queue.append(edge)
    return Witness(frozenset(marked))


def _relief_chain(last: Swap, relief: dict[int, Swap]) -> tuple[Swap, ...]:
    """*last* preceded by the relief swaps its endpoints need, each
    relief preceded by its own, in dependency order."""
    order = []
    stack = [last]
    while stack:
        swap = stack.pop()
        order.append(swap)
        stack.extend(relief[p] for p in swap[1] if p in relief)
    return tuple(reversed(order))


def fuerer_raghavachari(
    graph: Graph,
    initial_tree: RootedTree | None = None,
    *,
    max_iterations: int | None = None,
) -> tuple[RootedTree, FRStats]:
    """Iterate :func:`fr_phase` until it returns a witness (or for at
    most *max_iterations* improvements).

    Returns the final tree (degree ≤ Δ* + 1 when run to the end) and
    work statistics.
    """
    if not is_connected(graph):
        raise NotConnectedError("graph must be connected")
    if initial_tree is None:
        from ..spanning.preconstructed import bfs_tree

        initial_tree = bfs_tree(graph)
    tree = initial_tree
    improvements = 0
    while max_iterations is None or improvements < max_iterations:
        phase = fr_phase(graph, tree)
        if isinstance(phase, Witness):
            break
        tree = phase.apply(tree)
        improvements += 1
    return tree, FRStats(improvements=improvements)
