"""Tests for sequential baselines: F-R, local search, exact solver, bounds."""

import pytest

from repro.analysis.batch import CellTemplate
from repro.analysis.executor import RunSpec
from repro.errors import NotConnectedError, SolverError
from repro.graphs import (
    Graph,
    complete,
    gnp_connected,
    grid,
    hamiltonian_padded,
    hypercube,
    lollipop,
    path_graph,
    ring,
    set_bound,
    spider,
    star,
    tree_from_edges,
    wheel,
)
from repro.sequential import (
    Improvement,
    Witness,
    exact_minimum_degree_spanning_tree,
    find_simple_improvement,
    fr_phase,
    fr_quality_guarantee,
    fuerer_raghavachari,
    kmz_lower_bound,
    local_search_mdst,
    optimal_degree,
    paper_round_count,
    paper_round_message_budget,
    paper_total_message_budget,
    paper_total_time_budget,
    spanning_tree_with_max_degree,
)
from repro.spanning import bfs_tree, greedy_hub_tree
from repro.verify import assert_spanning_tree, forest_has_no_crossing_edges

SMALL_GRAPHS = {
    "k6": complete(6),
    "wheel8": wheel(8),
    "ring7": ring(7),
    "grid3x3": grid(3, 3),
    "cube3": hypercube(3),
    "spider": spider(4, 2),
    "lollipop": lollipop(5, 3),
    "gnp": gnp_connected(12, 0.35, seed=2),
    "ham": hamiltonian_padded(12, 10, seed=3),
    "star8": star(8),
}


class TestExact:
    @pytest.mark.parametrize("gname", sorted(SMALL_GRAPHS))
    def test_exact_is_feasible_and_minimal(self, gname):
        g = SMALL_GRAPHS[gname]
        t = exact_minimum_degree_spanning_tree(g)
        assert t.is_spanning_tree_of(g)
        d = t.max_degree()
        if d > 1:
            assert spanning_tree_with_max_degree(g, d - 1) is None

    def test_known_optima(self):
        assert optimal_degree(complete(6)) == 2  # Hamiltonian path
        assert optimal_degree(ring(7)) == 2
        assert optimal_degree(star(8)) == 7  # forced star
        assert optimal_degree(path_graph(5)) == 2
        assert optimal_degree(wheel(8)) == 2  # rim path + hub inline

    def test_spider_optimum(self):
        # 4 legs of length 2 with a tip cycle: hub needs 2+; Δ* = 2?
        g = spider(4, 2)
        d = optimal_degree(g)
        assert 2 <= d <= 3

    def test_degree_one(self):
        assert spanning_tree_with_max_degree(path_graph(2), 1) is not None
        assert spanning_tree_with_max_degree(path_graph(3), 1) is None

    def test_single_node(self):
        t = exact_minimum_degree_spanning_tree(Graph(nodes=[5]))
        assert t.n == 1

    def test_empty_raises(self):
        with pytest.raises(SolverError):
            exact_minimum_degree_spanning_tree(Graph())

    def test_disconnected_raises(self):
        with pytest.raises(NotConnectedError):
            exact_minimum_degree_spanning_tree(Graph(edges=[(0, 1), (2, 3)]))

    def test_node_limit(self):
        with pytest.raises(SolverError):
            exact_minimum_degree_spanning_tree(complete(30))

    def test_hamiltonian_path_reconstruction(self):
        # d=2 path goes through the DP branch; verify tree is a path
        t = spanning_tree_with_max_degree(complete(8), 2)
        assert t is not None and t.max_degree() == 2

    def test_branch_and_bound_beyond_dp_range(self):
        g = gnp_connected(10, 0.4, seed=5)
        d3 = spanning_tree_with_max_degree(g, 3)
        if d3 is not None:
            assert d3.max_degree() <= 3


class TestFuererRaghavachari:
    @pytest.mark.parametrize("gname", sorted(SMALL_GRAPHS))
    def test_within_one_of_optimal(self, gname):
        """The headline guarantee: F-R final degree ≤ Δ* + 1."""
        g = SMALL_GRAPHS[gname]
        t0 = greedy_hub_tree(g)
        t, stats = fuerer_raghavachari(g, t0)
        assert t.is_spanning_tree_of(g)
        assert t.max_degree() <= optimal_degree(g) + 1
        assert stats.improvements >= 0

    def test_improves_bad_tree_on_complete(self):
        g = complete(8)
        t, stats = fuerer_raghavachari(g, greedy_hub_tree(g))
        assert t.max_degree() == 2
        assert stats.improvements >= 5

    def test_no_improvement_on_chain(self):
        g = ring(6)
        t0 = bfs_tree(g)
        t, _ = fuerer_raghavachari(g, t0)
        assert t.max_degree() == 2

    def test_star_graph_stuck_at_forced(self):
        g = star(6)
        t, stats = fuerer_raghavachari(g)
        assert t.max_degree() == 5
        assert stats.improvements == 0

    def test_phase_witness_at_optimum(self):
        g = ring(8)
        assert isinstance(fr_phase(g, bfs_tree(g)), Witness)

    def test_max_iterations(self):
        g = complete(10)
        t, stats = fuerer_raghavachari(g, greedy_hub_tree(g), max_iterations=2)
        assert stats.improvements <= 3  # counter may probe one more

    def test_disconnected_raises(self):
        with pytest.raises(NotConnectedError):
            fuerer_raghavachari(Graph(edges=[(0, 1), (2, 3)]))

    def test_blocking_resolution_case(self):
        """A case where the simple rule is stuck but F-R improves:
        requires an unmark-merge through a degree-(k−1) vertex."""
        # hub h(0) deg 4; blocker b(5) deg 3 = k-1 sits on every useful cycle
        g = Graph(
            edges=[
                (0, 1), (0, 2), (0, 3), (0, 4),  # star at 0 (k=4)
                (1, 5), (2, 5),                   # blocker 5
                (3, 6), (4, 7), (6, 7),           # alternative route
            ]
        )
        t0 = tree_from_edges(
            0, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (3, 6), (4, 7)]
        )
        assert t0.max_degree() == 4
        t, _ = fuerer_raghavachari(g, t0)
        assert t.max_degree() <= 3


def _improves(graph, tree, phase):
    """Applying *phase* keeps a spanning tree and lowers k or the number
    of degree-k vertices."""
    k = tree.max_degree()
    after = phase.apply(tree)
    assert_spanning_tree(graph, after)
    top = [sum(t.degree(v) == k for v in t.nodes()) for t in (tree, after)]
    return after.max_degree() < k or top[1] < top[0]


class TestFRPhase:
    def test_relieves_a_degree_k_minus_1_endpoint_first(self):
        """Hub 0 has degree k = 4. The only edge whose cycle passes it,
        (1, 2), has endpoint 1 of degree k−1. Blocking resolution over
        (5, 6) unmarks 1 and records that swap; the improvement applies
        it first, so 1 ends at degree 3, not 4."""
        g = Graph(
            edges=[
                (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6),  # the tree
                (5, 6), (1, 2),
            ]
        )
        t = tree_from_edges(0, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6)])
        phase = fr_phase(g, t)
        assert phase == Improvement(swaps=(((1, 6), (5, 6)), ((0, 2), (1, 2))))
        assert _improves(g, t, phase)
        assert phase.apply(t).max_degree() == 3

    #: the final trees at n=64 that stop with an F-R improvement left
    #: (all other (algorithm, family, seed) cells end with a witness)
    IMPROVABLE_AT_64 = {
        ("blin_butelle", "gnp_sparse", 1), ("blin_butelle", "gnp_sparse", 2),
        ("blin_butelle", "pref_attach", 1), ("blin_butelle", "pref_attach", 2),
        ("fr_local", "gnp_sparse", 2), ("fr_local", "pref_attach", 0),
        ("fr_local", "pref_attach", 1), ("fr_local", "pref_attach", 2),
    }

    @pytest.mark.parametrize("algorithm", ["blin_butelle", "fr_local"])
    @pytest.mark.parametrize(
        "family",
        ["gnp_sparse", "geometric", "pref_attach", "gnp_dense", "grid",
         "hypercube", "regular4"],
    )
    def test_final_trees_at_64(self, algorithm, family):
        """Each final tree gets a witness that passes the independent
        forest check with a set bound ≥ k−1, or an improvement that
        applies; the cell's record carries the same verdict, with
        k − 1 ≤ lb ≤ k on every tree, improvable or not."""
        for seed in range(3):
            spec = RunSpec(family=family, n=64, seed=seed, algorithm=algorithm)
            template = CellTemplate(spec)
            g, _, startup_messages, res = template.attempt(seed, None)
            record = template.ok_record(seed, g, startup_messages, res)
            t = res.final_tree
            phase = fr_phase(g, t)
            improvable = (algorithm, family, seed) in self.IMPROVABLE_AT_64
            assert record.fr_improvable == improvable
            assert record.k_final - 1 <= record.lb <= record.k_final == t.max_degree()
            if improvable:
                assert isinstance(phase, Improvement)
                assert _improves(g, t, phase)
            else:
                assert isinstance(phase, Witness)
                assert forest_has_no_crossing_edges(g, t, phase.marked)
                assert set_bound(g, phase.marked) >= t.max_degree() - 1


class TestLocalSearch:
    @pytest.mark.parametrize("gname", sorted(SMALL_GRAPHS))
    def test_never_worse_and_valid(self, gname):
        g = SMALL_GRAPHS[gname]
        t0 = greedy_hub_tree(g)
        t, swaps = local_search_mdst(g, t0)
        assert t.is_spanning_tree_of(g)
        assert t.max_degree() <= t0.max_degree()

    def test_weaker_or_equal_to_fr(self):
        for gname, g in SMALL_GRAPHS.items():
            t0 = greedy_hub_tree(g)
            simple, _ = local_search_mdst(g, t0)
            fr, _ = fuerer_raghavachari(g, t0)
            assert fr.max_degree() <= simple.max_degree(), gname

    def test_stuck_returns_none(self):
        g = star(6)
        assert find_simple_improvement(g, bfs_tree(g)) is None

    def test_max_iterations(self):
        g = complete(10)
        _, swaps = local_search_mdst(g, greedy_hub_tree(g), max_iterations=3)
        assert swaps == 3


class TestBounds:
    def test_kmz(self):
        assert kmz_lower_bound(10, 2) == 50.0
        with pytest.raises(ValueError):
            kmz_lower_bound(0, 1)

    def test_fr_guarantee(self):
        assert fr_quality_guarantee(3) == 4
        with pytest.raises(ValueError):
            fr_quality_guarantee(-1)

    def test_paper_budgets(self):
        assert paper_round_message_budget(10, 20) == 2 * 20 + 3 * 9
        assert paper_round_count(7, 3) == 5
        assert paper_total_message_budget(10, 20, 7, 3) == 5 * (40 + 27)
        assert paper_total_time_budget(10, 7, 3) == 5 * 40
        with pytest.raises(ValueError):
            paper_round_count(2, 5)
