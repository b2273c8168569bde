"""Property tests tying the exact solver, F-R and Theorem 1 together."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import gnp_connected, min_degree_lower_bound, set_bound
from repro.sequential import (
    Witness,
    fr_phase,
    fuerer_raghavachari,
    optimal_degree,
    spanning_tree_with_max_degree,
)
from repro.spanning import greedy_hub_tree, random_spanning_tree
from repro.verify import assert_spanning_tree, forest_has_no_crossing_edges

small_sizes = st.integers(min_value=3, max_value=11)
seeds = st.integers(min_value=0, max_value=5_000)
densities = st.floats(min_value=0.15, max_value=0.8, allow_nan=False)


class TestExactProperties:
    @given(small_sizes, densities, seeds)
    @settings(max_examples=30, deadline=None)
    def test_exact_respects_lower_bound_and_feasibility(self, n, p, seed):
        g = gnp_connected(n, p, seed=seed)
        opt = optimal_degree(g)
        assert opt >= min_degree_lower_bound(g)
        tree = spanning_tree_with_max_degree(g, opt)
        assert tree is not None and tree.max_degree() <= opt
        if opt > 1:
            assert spanning_tree_with_max_degree(g, opt - 1) is None

    @given(small_sizes, densities, seeds, seeds)
    @settings(max_examples=25, deadline=None)
    def test_fr_guarantee_against_ground_truth(self, n, p, gseed, tseed):
        """The Fürer–Raghavachari theorem, checked end to end: from any
        initial tree, the final degree is ≤ Δ* + 1 and the fixpoint is
        certified by Theorem 1's condition."""
        g = gnp_connected(n, p, seed=gseed)
        t0 = random_spanning_tree(g, seed=tseed)
        final, _stats = fuerer_raghavachari(g, t0)
        opt = optimal_degree(g)
        assert opt <= final.max_degree() <= opt + 1
        phase = fr_phase(g, final)
        assert isinstance(phase, Witness)
        assert forest_has_no_crossing_edges(g, final, phase.marked)

    @given(st.integers(min_value=3, max_value=10), densities, seeds, seeds)
    @settings(max_examples=40, deadline=None)
    def test_phase_on_any_tree_against_ground_truth(self, n, p, gseed, tseed):
        """One phase on an arbitrary tree: a witness bounds Δ* from
        below (k − 1 ≤ its set bound ≤ Δ*), an improvement applies to a spanning
        tree with fewer degree-k vertices or a lower k."""
        g = gnp_connected(n, p, seed=gseed)
        t = random_spanning_tree(g, seed=tseed)
        k = t.max_degree()
        phase = fr_phase(g, t)
        if isinstance(phase, Witness):
            assert forest_has_no_crossing_edges(g, t, phase.marked)
            assert k - 1 <= set_bound(g, phase.marked) <= optimal_degree(g)
        else:
            after = phase.apply(t)
            assert_spanning_tree(g, after)
            top = [sum(x.degree(v) == k for v in x.nodes()) for x in (t, after)]
            assert after.max_degree() < k or top[1] < top[0]

    @given(small_sizes, densities, seeds)
    @settings(max_examples=20, deadline=None)
    def test_greedy_hub_never_below_optimal(self, n, p, seed):
        g = gnp_connected(n, p, seed=seed)
        t = greedy_hub_tree(g)
        assert t.max_degree() >= optimal_degree(g)
