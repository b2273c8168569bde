"""Common scaffolding for distributed spanning-tree construction.

Every algorithm in this package satisfies the contract the paper needs
from its startup process (§3.2): upon termination *by process* every node
knows its parent and children in a rooted spanning tree, and knows that
construction has finished. The tree is extracted from node state after the
network quiesces, by :func:`extract_tree` — the same read-back that
finalizes every improvement-protocol run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProtocolError, StallError
from ..graphs.graph import Graph
from ..graphs.trees import RootedTree
from ..sim.metrics import SimulationReport
from ..sim.network import Network

__all__ = ["SpanningTreeOutcome", "extract_tree"]


@dataclass(frozen=True)
class SpanningTreeOutcome:
    """Result of a spanning-tree construction.

    Attributes
    ----------
    tree:
        The rooted spanning tree.
    report:
        Simulation metrics for distributed constructions; ``None`` for the
        centralized (adversarial / reference) constructions.
    """

    tree: RootedTree
    report: SimulationReport | None

    @property
    def degree(self) -> int:
        """Max degree of the constructed tree (the paper's initial k)."""
        return self.tree.max_degree()


def extract_tree(net: Network, graph: Graph) -> RootedTree:
    """Read the tree off a quiescent network's processes and certify it:
    the one read-back of every distributed construction, startup and
    improvement protocol alike.

    Every process must have halted (a node that never did is a stall,
    :class:`StallError`, which fault and churn harnesses flatten loudly)
    and expose ``parent``; where a process keeps a ``children`` view it
    must mirror the parent pointers. Raises :class:`ProtocolError` if a
    parent is not a graph edge or the pointers do not form one spanning
    tree.
    """
    parents: dict[int, int | None] = {}
    roots = []
    for u, proc in net.processes.items():
        if not proc.terminated:
            raise StallError(f"node {u} never terminated")
        parents[u] = par = proc.parent
        if par is None:
            roots.append(u)
        elif not graph.has_edge(u, par):
            raise ProtocolError(f"node {u} has non-edge parent {par}")
    if len(roots) != 1:
        raise ProtocolError(f"expected one root, got {roots}")
    tree = RootedTree(roots[0], parents)
    if tree.n != graph.n:
        raise ProtocolError("final tree does not span the graph")
    for u, proc in net.processes.items():
        kids = getattr(proc, "children", None)
        if kids is not None and set(kids) != tree.children(u):
            raise ProtocolError(
                f"node {u}: children view {sorted(kids)} != "
                f"{sorted(tree.children(u))}"
            )
    return tree
