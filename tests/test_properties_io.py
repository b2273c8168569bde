"""Unit tests for repro.graphs.properties and repro.graphs.io."""

import pytest

from repro.errors import GraphError, NotConnectedError
from repro.graphs import (
    Graph,
    articulation_points,
    caterpillar_graph,
    complete,
    connected_components,
    dumps,
    dumps_dimacs,
    has_hamiltonian_path,
    load,
    loads,
    loads_dimacs,
    lollipop,
    make_family,
    min_degree_lower_bound,
    path_graph,
    random_tree,
    ring,
    save,
    set_bound,
    spider,
    star,
)
from repro.sequential import optimal_degree


class TestArticulation:
    def test_path_interior_nodes(self):
        assert articulation_points(path_graph(5)) == {1, 2, 3}

    def test_ring_has_none(self):
        assert articulation_points(ring(6)) == set()

    def test_star_hub(self):
        assert articulation_points(star(5)) == {0}

    def test_two_triangles_sharing_a_node(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert articulation_points(g) == {2}


class TestHamiltonianPath:
    def test_path_graph_yes(self):
        assert has_hamiltonian_path(path_graph(6))

    def test_star_no(self):
        assert not has_hamiltonian_path(star(5))

    def test_complete_yes(self):
        assert has_hamiltonian_path(complete(6))

    def test_disconnected_no(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        assert not has_hamiltonian_path(g)

    def test_singleton(self):
        assert has_hamiltonian_path(Graph(nodes=[0]))

    def test_empty(self):
        assert not has_hamiltonian_path(Graph())

    def test_size_limit(self):
        with pytest.raises(GraphError):
            has_hamiltonian_path(complete(25))


class TestLowerBound:
    def test_star_forces_high_degree(self):
        assert min_degree_lower_bound(star(6)) == 5

    def test_ring_is_two(self):
        assert min_degree_lower_bound(ring(6)) == 2

    def test_complete_is_two(self):
        assert min_degree_lower_bound(complete(5)) == 2

    def test_tiny(self):
        assert min_degree_lower_bound(Graph(nodes=[0])) == 0
        assert min_degree_lower_bound(Graph(edges=[(0, 1)])) == 1

    def test_empty_raises(self):
        with pytest.raises(GraphError):
            min_degree_lower_bound(Graph())

    def test_set_bound_edge_cases(self):
        """An empty set bounds nothing; a disconnected graph has no
        spanning tree to bound."""
        assert set_bound(star(6), []) == 0
        with pytest.raises(NotConnectedError):
            set_bound(Graph(edges=[(0, 1), (2, 3)]), [0])

    @pytest.mark.parametrize(
        "family, n, seed",
        [("ring", 8, 0), ("complete", 7, 0), ("gnp_sparse", 10, 2),
         ("bipartite", 12, 0), ("wheel", 8, 0)],
    )
    def test_matches_or_undershoots_exact_optimum(self, family, n, seed):
        g = make_family(family, n, seed=seed)
        assert 1 <= min_degree_lower_bound(g) <= optimal_degree(g)

    def test_family_cut_vertex_certificate(self):
        assert min_degree_lower_bound(make_family("complete", 6)) == 2
        assert min_degree_lower_bound(make_family("ring", 3)) == 2
        # star: hub removal leaves n-1 singletons, LB = n-1 = Δ*
        assert min_degree_lower_bound(star(9)) == 8

    def test_spider_hub(self):
        # hub 0 with 3 paths of length 2, no tip cycle -> removal splits 3 ways
        g = Graph(edges=[(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert min_degree_lower_bound(g) == 3

    @staticmethod
    def _instances():
        for family in ("gnp_sparse", "geometric", "pref_attach", "barbell",
                       "grid", "wheel"):
            for n in (6, 9, 16, 33):
                for seed in range(3):
                    yield make_family(family, n, seed=seed)
        for seed in range(5):
            yield random_tree(20, seed=seed)
        yield caterpillar_graph(5, 3)
        yield spider(4, 3)
        yield lollipop(5, 4)

    def test_one_lowlink_pass_matches_brute_force(self):
        """The bound and the cut vertices from one lowlink pass equal a
        brute-force count of the components of G − v for every v."""
        for g in self._instances():
            splits = {
                v: len(connected_components(
                    g.subgraph(u for u in g.nodes() if u != v)))
                for v in g.nodes()
            }
            assert articulation_points(g) == {
                v for v, c in splits.items() if c >= 2
            }
            assert min_degree_lower_bound(g) == max(2, *splits.values())


class TestEdgeListIO:
    def test_roundtrip(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        g.add_node(5)
        g.set_weight(0, 1, 2.5)
        h = loads(dumps(g))
        assert h == g
        assert h.weight(0, 1) == 2.5

    def test_file_roundtrip(self, tmp_path):
        g = ring(7)
        path = tmp_path / "g.edges"
        save(g, path)
        assert load(path) == g

    def test_comments_and_blanks(self):
        g = loads("# hello\n\n0 1\n")
        assert g.m == 1

    def test_parse_error(self):
        with pytest.raises(GraphError):
            loads("0 x\n")


class TestDimacsIO:
    def test_roundtrip(self):
        g = ring(5)
        h = loads_dimacs(dumps_dimacs(g))
        assert h == g

    def test_requires_contiguous(self):
        g = Graph(edges=[(0, 5)])
        with pytest.raises(GraphError):
            dumps_dimacs(g)

    def test_bad_lines(self):
        with pytest.raises(GraphError):
            loads_dimacs("p edge x 1\n")
        with pytest.raises(GraphError):
            loads_dimacs("q foo\n")
        with pytest.raises(GraphError):
            loads_dimacs("p edge 3 1\ne 1 x\n")

    def test_node_count_mismatch(self):
        with pytest.raises(GraphError):
            loads_dimacs("p edge 2 1\ne 1 3\n")
