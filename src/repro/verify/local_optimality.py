"""The locally-optimal-tree condition — Theorem 1 of the paper.

Theorem 1 (Fürer–Raghavachari): let T be a spanning tree of degree k,
S the degree-k vertices, B ⊆ degree-(k−1) vertices. Remove S ∪ B from
the graph, breaking T into forest F. If G has **no edges between
different trees of F**, then k ≤ Δ\\* + 1.

:func:`forest_has_no_crossing_edges` checks that condition for a given
S ∪ B. It is the reference check, written independently of the search
that finds the set: the tests compare every witness of
:func:`repro.sequential.fr_phase` against it, while
:func:`~repro.verify.judge` checks a witness by its set bound.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..graphs.graph import Graph
from ..graphs.traversal import connected_components
from ..graphs.trees import RootedTree

__all__ = ["forest_has_no_crossing_edges"]


def forest_has_no_crossing_edges(
    graph: Graph, tree: RootedTree, removed: Iterable[int]
) -> bool:
    """Check Theorem 1's condition for the vertex set *removed* (= S ∪ B):
    after deleting those vertices, no graph edge joins two different
    trees of the remaining forest F."""
    removed_set = set(removed)
    keep = [u for u in tree.nodes() if u not in removed_set]
    if not keep:
        return True
    forest = Graph(nodes=keep)
    for u, v in tree.edges():
        if u not in removed_set and v not in removed_set:
            forest.add_edge(u, v)
    comp_of: dict[int, int] = {}
    for i, comp in enumerate(connected_components(forest)):
        for u in comp:
            comp_of[u] = i
    for u, v in graph.edges():
        if u in removed_set or v in removed_set:
            continue
        if comp_of[u] != comp_of[v]:
            return False
    return True
