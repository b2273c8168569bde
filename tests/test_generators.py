"""Unit tests for repro.graphs.generators."""

import pytest

from repro.errors import GraphError, UnknownNameError
from repro.graphs import (
    FAMILIES,
    caterpillar_graph,
    complete,
    gnp_connected,
    grid,
    hamiltonian_padded,
    hypercube,
    is_connected,
    lollipop,
    make_family,
    path_graph,
    preferential_attachment,
    random_geometric,
    random_regular,
    random_tree,
    ring,
    spider,
    star,
    torus,
    wheel,
)


class TestDeterministicFamilies:
    def test_complete(self):
        g = complete(5)
        assert g.n == 5 and g.m == 10
        assert g.max_degree() == 4

    def test_ring(self):
        g = ring(6)
        assert g.n == 6 and g.m == 6
        assert all(g.degree(u) == 2 for u in g.nodes())
        with pytest.raises(GraphError):
            ring(2)

    def test_path(self):
        g = path_graph(4)
        assert g.m == 3 and g.degree(0) == 1 and g.degree(1) == 2

    def test_star(self):
        g = star(7)
        assert g.degree(0) == 6
        assert all(g.degree(u) == 1 for u in range(1, 7))
        with pytest.raises(GraphError):
            star(1)

    def test_wheel(self):
        g = wheel(6)
        assert g.degree(0) == 5
        assert all(g.degree(u) == 3 for u in range(1, 6))
        with pytest.raises(GraphError):
            wheel(3)

    def test_grid(self):
        g = grid(3, 4)
        assert g.n == 12 and g.m == 3 * 3 + 2 * 4
        assert is_connected(g)
        with pytest.raises(GraphError):
            grid(0, 3)

    def test_torus(self):
        g = torus(3, 3)
        assert g.n == 9
        assert all(g.degree(u) == 4 for u in g.nodes())
        with pytest.raises(GraphError):
            torus(2, 5)

    def test_hypercube(self):
        g = hypercube(3)
        assert g.n == 8 and g.m == 12
        assert all(g.degree(u) == 3 for u in g.nodes())
        with pytest.raises(GraphError):
            hypercube(0)

    def test_caterpillar(self):
        g = caterpillar_graph(4, 2)
        assert g.n == 4 * 3
        assert is_connected(g)
        # spine node interior degree at least legs + 2
        assert g.degree(1) >= 4
        with pytest.raises(GraphError):
            caterpillar_graph(1, 1)

    def test_spider(self):
        g = spider(4, 3)
        assert g.n == 1 + 4 * 3
        assert g.degree(0) == 4
        assert is_connected(g)
        with pytest.raises(GraphError):
            spider(2, 1)

    def test_lollipop(self):
        g = lollipop(4, 3)
        assert g.n == 7
        assert is_connected(g)
        assert g.degree(6) == 1
        with pytest.raises(GraphError):
            lollipop(2, 1)


class TestRandomFamilies:
    @pytest.mark.parametrize("n,p", [(10, 0.0), (10, 0.2), (20, 0.5), (5, 1.0)])
    def test_gnp_connected(self, n, p):
        g = gnp_connected(n, p, seed=42)
        assert g.n == n
        assert is_connected(g)

    def test_gnp_reproducible(self):
        a = gnp_connected(15, 0.3, seed=1)
        b = gnp_connected(15, 0.3, seed=1)
        c = gnp_connected(15, 0.3, seed=2)
        assert a == b
        assert a != c or a.edges() != c.edges()  # overwhelmingly different

    def test_gnp_bad_p(self):
        with pytest.raises(GraphError):
            gnp_connected(5, 1.5, seed=0)

    def test_geometric(self):
        g = random_geometric(25, 0.35, seed=3)
        assert g.n == 25 and is_connected(g)
        assert random_geometric(25, 0.35, seed=3) == g

    def test_geometric_bad_radius(self):
        with pytest.raises(GraphError):
            random_geometric(5, 0.0, seed=0)

    def test_random_regular(self):
        g = random_regular(12, 4, seed=5)
        assert all(g.degree(u) == 4 for u in g.nodes())
        assert is_connected(g)

    def test_random_regular_invalid(self):
        with pytest.raises(GraphError):
            random_regular(5, 5, seed=0)
        with pytest.raises(GraphError):
            random_regular(5, 3, seed=0)  # odd n*d
        with pytest.raises(GraphError):
            random_regular(8, 1, seed=0)

    def test_preferential_attachment(self):
        g = preferential_attachment(30, 2, seed=7)
        assert g.n == 30 and is_connected(g)
        assert g.m == 3 + (30 - 3) * 2
        with pytest.raises(GraphError):
            preferential_attachment(3, 3, seed=0)

    def test_hamiltonian_padded(self):
        g = hamiltonian_padded(20, 10, seed=9)
        assert g.n == 20 and is_connected(g)
        assert g.m >= 19
        assert hamiltonian_padded(20, 10, seed=9) == g

    def test_hamiltonian_padded_cap(self):
        # asking for more chords than exist must not loop forever
        g = hamiltonian_padded(5, 100, seed=0)
        assert g.m <= 10

    def test_random_tree(self):
        g = random_tree(12, seed=11)
        assert g.n == 12 and g.m == 11 and is_connected(g)
        assert random_tree(12, seed=11) == g

    def test_random_tree_tiny(self):
        assert random_tree(1, seed=0).n == 1
        assert random_tree(2, seed=0).m == 1


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_all_families_connected(self, name):
        g = make_family(name, 16, seed=1)
        assert is_connected(g)
        assert g.n >= 8  # shape parameters may round n a little

    def test_unknown_family(self):
        with pytest.raises(UnknownNameError, match="unknown family 'nope'"):
            make_family("nope", 10)
