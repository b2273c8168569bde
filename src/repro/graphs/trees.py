"""Rooted spanning-tree representation and validation.

A :class:`RootedTree` is the common output of every spanning-tree
construction in this library (distributed or centralized) and the common
input of the MDegST protocol, the sequential baselines, and the verifiers.
It stores the parent map and derives children sets; node identities match
the underlying graph.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from ..errors import GraphError, NotATreeError
from .graph import Edge, Graph, canonical_edge

__all__ = ["RootedTree", "tree_from_parents", "tree_from_edges"]


class RootedTree:
    """A rooted tree over integer node identities.

    Parameters
    ----------
    root:
        Identity of the root node.
    parents:
        Map ``node -> parent`` for every non-root node. The root must not
        appear as a key (or may map to ``None``).

    The constructor validates shape: every parent is a node of the tree,
    there are no cycles, and all nodes are reachable from the root.
    """

    __slots__ = ("_root", "_parents", "_children", "_max_degree")

    def __init__(self, root: int, parents: dict[int, int | None]) -> None:
        cleaned: dict[int, int] = {}
        for node, par in parents.items():
            if node == root or par is None:
                if node != root:
                    raise NotATreeError(f"non-root node {node} has no parent")
                continue
            cleaned[node] = par
        nodes = set(cleaned) | {root}
        for node, par in cleaned.items():
            if par not in nodes:
                raise NotATreeError(f"parent {par} of {node} is not a tree node")
        self._root = root
        self._parents = cleaned
        self._max_degree: int | None = None  # computed on first use
        self._children: dict[int, set[int]] = {node: set() for node in nodes}
        for node, par in cleaned.items():
            self._children[par].add(node)
        # reachability check == acyclicity check given |E| = |V| - 1
        seen = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            seen += 1
            queue.extend(self._children[u])
        if seen != len(nodes):
            raise NotATreeError("parent map contains a cycle / unreachable part")

    # -- structure -----------------------------------------------------

    @property
    def root(self) -> int:
        return self._root

    @property
    def n(self) -> int:
        return len(self._children)

    def nodes(self) -> list[int]:
        return sorted(self._children)

    def parent(self, node: int) -> int | None:
        """Parent of *node*, or ``None`` for the root."""
        if node == self._root:
            return None
        try:
            return self._parents[node]
        except KeyError:
            raise GraphError(f"unknown node {node}") from None

    def children(self, node: int) -> set[int]:
        try:
            return self._children[node]
        except KeyError:
            raise GraphError(f"unknown node {node}") from None

    def edges(self) -> list[Edge]:
        """Canonical tree edges (n − 1 of them)."""
        return sorted(canonical_edge(u, p) for u, p in self._parents.items())

    def degree(self, node: int) -> int:
        """Tree degree = #children + (1 if non-root)."""
        return len(self.children(node)) + (0 if node == self._root else 1)

    def max_degree(self) -> int:
        """Maximum tree degree (the quantity the paper minimizes); a tree
        never changes, so it is computed once."""
        if self._max_degree is None:
            self._max_degree = max(self.degree(u) for u in self._children)
        return self._max_degree

    def max_degree_nodes(self) -> list[int]:
        """Sorted identities of nodes achieving the maximum tree degree."""
        k = self.max_degree()
        return sorted(u for u in self._children if self.degree(u) == k)

    def degree_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for u in self._children:
            d = self.degree(u)
            hist[d] = hist.get(d, 0) + 1
        return dict(sorted(hist.items()))

    def leaves(self) -> list[int]:
        """Sorted leaf identities (degree-1 nodes)."""
        return sorted(u for u in self._children if self.degree(u) == 1)

    def depth(self, node: int) -> int:
        """Distance from *node* up to the root."""
        d = 0
        cur = node
        while cur != self._root:
            par = self.parent(cur)
            assert par is not None
            cur = par
            d += 1
            if d > self.n:
                raise NotATreeError("cycle while computing depth")
        return d

    def height(self) -> int:
        """Maximum depth over all nodes."""
        return max(self.depth(u) for u in self._children)

    def subtree(self, node: int) -> set[int]:
        """All descendants of *node*, including *node* itself."""
        out: set[int] = set()
        queue = deque([node])
        while queue:
            u = queue.popleft()
            out.add(u)
            queue.extend(self.children(u))
        return out

    def path_to_root(self, node: int) -> list[int]:
        """``[node, parent, ..., root]``."""
        path = [node]
        while path[-1] != self._root:
            par = self.parent(path[-1])
            assert par is not None
            path.append(par)
        return path

    def path(self, u: int, v: int) -> list[int]:
        """Tree path from *u* to *v*."""
        pu = self.path_to_root(u)
        pv = self.path_to_root(v)
        su = set(pu)
        lca = next(x for x in pv if x in su)
        return pu[: pu.index(lca) + 1] + list(reversed(pv[: pv.index(lca)]))

    # -- conversions ----------------------------------------------------

    def parent_map(self) -> dict[int, int | None]:
        """Full parent map including ``root -> None`` (a fresh dict)."""
        out: dict[int, int | None] = dict(self._parents)
        out[self._root] = None
        return out

    def as_graph(self) -> Graph:
        """The tree as an undirected :class:`Graph`."""
        return Graph(nodes=self.nodes(), edges=self.edges())

    def rerooted(self, new_root: int) -> "RootedTree":
        """Same undirected tree, rooted at *new_root* (path reversal)."""
        if new_root not in self._children:
            raise GraphError(f"unknown node {new_root}")
        parents = self.parent_map()
        path = self.path_to_root(new_root)  # new_root ... old_root
        for child, par in zip(path, path[1:]):
            parents[par] = child
        parents[new_root] = None
        return RootedTree(new_root, parents)

    def swapped(self, remove: Edge, add: Edge) -> "RootedTree":
        """Return the tree after an *exchange*: delete tree edge ``remove``
        and insert graph edge ``add``, re-rooted consistently at the same
        root. Raises :class:`NotATreeError` if the result is not a tree
        (i.e. the exchange was invalid).
        """
        edges = set(self.edges())
        rem = canonical_edge(*remove)
        addc = canonical_edge(*add)
        if rem not in edges:
            raise NotATreeError(f"remove edge {rem} not in tree")
        if addc in edges:
            raise NotATreeError(f"add edge {addc} already in tree")
        edges.discard(rem)
        edges.add(addc)
        return tree_from_edges(self._root, edges)

    # -- checks ----------------------------------------------------------

    def is_spanning_tree_of(self, graph: Graph) -> bool:
        """True iff this tree spans *graph* and uses only graph edges."""
        if set(self.nodes()) != set(graph.nodes()):
            return False
        return all(graph.has_edge(u, v) for u, v in self.edges())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self._root == other._root and self._parents == other._parents

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"RootedTree(root={self._root}, n={self.n}, max_degree={self.max_degree()})"


def tree_from_parents(root: int, parents: dict[int, int | None]) -> RootedTree:
    """Alias constructor, mirrors :func:`tree_from_edges`."""
    return RootedTree(root, parents)


def tree_from_edges(root: int, edges: Iterable[tuple[int, int]]) -> RootedTree:
    """Build a :class:`RootedTree` from an undirected edge set and a root.

    Raises :class:`NotATreeError` if the edges do not form a tree
    containing *root*.
    """
    adj: dict[int, set[int]] = {root: set()}
    count = 0
    for u, v in edges:
        e = canonical_edge(u, v)
        adj.setdefault(e[0], set()).add(e[1])
        adj.setdefault(e[1], set()).add(e[0])
        count += 1
    if count != len(adj) - 1:
        raise NotATreeError(f"{count} edges over {len(adj)} nodes is not a tree")
    parents: dict[int, int | None] = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in parents:
                parents[v] = u
                queue.append(v)
    if len(parents) != len(adj):
        raise NotATreeError("edge set is disconnected")
    return RootedTree(root, parents)
