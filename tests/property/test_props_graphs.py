"""Property-based tests (hypothesis) for the graph substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    RootedTree,
    bfs_parents,
    canonical_edge,
    connected_components,
    dumps,
    gnp_connected,
    hamiltonian_padded,
    is_connected,
    loads,
    random_tree,
)

# -- strategies ---------------------------------------------------------------

sizes = st.integers(min_value=2, max_value=24)
seeds = st.integers(min_value=0, max_value=10_000)
probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def connected_graphs(draw):
    n = draw(sizes)
    p = draw(probs)
    seed = draw(seeds)
    return gnp_connected(n, p, seed=seed)


# -- graph invariants -----------------------------------------------------------


class TestGraphInvariants:
    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_generated_graphs_are_connected_simple(self, g):
        assert is_connected(g)
        # degree sum = 2m (handshake lemma) — catches adjacency corruption
        assert sum(g.degree(u) for u in g.nodes()) == 2 * g.m
        # every edge canonical and between known nodes
        for u, v in g.edges():
            assert u < v
            assert v in g.neighbors(u) and u in g.neighbors(v)

    @given(connected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_io_roundtrip(self, g):
        assert loads(dumps(g)) == g

    @given(sizes, seeds)
    @settings(max_examples=30, deadline=None)
    def test_random_tree_is_tree(self, n, seed):
        g = random_tree(n, seed=seed)
        assert g.m == n - 1
        assert is_connected(g)

    @given(sizes, seeds)
    @settings(max_examples=25, deadline=None)
    def test_hamiltonian_padded_connected(self, n, seed):
        g = hamiltonian_padded(n, n, seed=seed)
        assert is_connected(g)
        assert g.m >= n - 1

    @given(connected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_components_partition(self, g):
        comps = connected_components(g)
        union = set().union(*comps)
        assert union == set(g.nodes())
        assert sum(len(c) for c in comps) == g.n


class TestTreeInvariants:
    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_bfs_tree_spans(self, g):
        root = g.nodes()[0]
        tree = RootedTree(root, bfs_parents(g, root))
        assert tree.n == g.n
        assert tree.is_spanning_tree_of(g)
        # degree identity: sum of tree degrees = 2(n-1)
        assert sum(tree.degree(u) for u in tree.nodes()) == 2 * (g.n - 1)

    @given(connected_graphs(), seeds)
    @settings(max_examples=30, deadline=None)
    def test_reroot_preserves_edges_and_degrees(self, g, seed):
        root = g.nodes()[0]
        tree = RootedTree(root, bfs_parents(g, root))
        nodes = tree.nodes()
        new_root = nodes[seed % len(nodes)]
        rerooted = tree.rerooted(new_root)
        assert rerooted.edges() == tree.edges()
        for u in nodes:
            assert rerooted.degree(u) == tree.degree(u)

    @given(connected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_path_endpoints_and_adjacency(self, g):
        root = g.nodes()[0]
        tree = RootedTree(root, bfs_parents(g, root))
        nodes = tree.nodes()
        u, v = nodes[0], nodes[-1]
        path = tree.path(u, v)
        assert path[0] == u and path[-1] == v
        tree_edges = set(tree.edges())
        for a, b in zip(path, path[1:]):
            assert canonical_edge(a, b) in tree_edges

    @given(connected_graphs())
    @settings(max_examples=20, deadline=None)
    def test_subtree_sizes_sum(self, g):
        root = g.nodes()[0]
        tree = RootedTree(root, bfs_parents(g, root))
        # sum over children subtrees + root = n
        total = 1 + sum(len(tree.subtree(c)) for c in tree.children(root))
        assert total == g.n
