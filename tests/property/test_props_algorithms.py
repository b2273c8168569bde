"""Property tests over the algorithm registry: on random connected
graphs small enough for the exact solver (n ≤ 9), every registered
algorithm's final tree degree stays within its *claimed* bound of the
exact optimum, from any random initial tree and under any schedule."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import algorithm_names, get_algorithm
from repro.graphs import gnp_connected
from repro.sequential import fr_quality_guarantee, optimal_degree
from repro.sim import ExponentialDelay, UniformDelay, UnitDelay
from repro.spanning import random_spanning_tree

sizes = st.integers(min_value=3, max_value=9)
seeds = st.integers(min_value=0, max_value=10_000)
densities = st.floats(min_value=0.2, max_value=0.7, allow_nan=False)
delay_factories = st.sampled_from([UnitDelay, UniformDelay, ExponentialDelay])


@st.composite
def instances(draw):
    n = draw(sizes)
    p = draw(densities)
    graph = gnp_connected(n, p, seed=draw(seeds))
    tree = random_spanning_tree(graph, seed=draw(seeds))
    return graph, tree


class TestClaimedBounds:
    @given(instances(), delay_factories, seeds)
    @settings(max_examples=30, deadline=None)
    def test_every_algorithm_meets_its_claimed_bound(
        self, inst, delay_cls, sched_seed
    ):
        graph, tree = inst
        opt = optimal_degree(graph)
        for name in algorithm_names():
            algo = get_algorithm(name)
            res = algo.run(
                graph,
                tree,
                delay=delay_cls(),
                seed=sched_seed,
                check_invariants=True,
            )
            assert res.final_tree.is_spanning_tree_of(graph), name
            assert opt <= res.final_degree, name
            assert res.final_degree <= fr_quality_guarantee(opt), (
                name,
                res.final_degree,
                opt,
            )

    @given(instances())
    @settings(max_examples=20, deadline=None)
    def test_algorithms_land_within_one_level_of_each_other(self, inst):
        """Both are local-improvement schemes over the same move set with
        different improvement orders: neither dominates, but they end
        within one degree level of each other."""
        graph, tree = inst
        degrees = {
            name: get_algorithm(name).run(graph, tree).final_degree
            for name in algorithm_names()
        }
        assert max(degrees.values()) - min(degrees.values()) <= 1, degrees
