"""Property tests of the set bound on Δ* and of what a witness implies."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import gnp_connected, min_degree_lower_bound, set_bound
from repro.graphs.properties import _cut_components
from repro.sequential import Witness, find_simple_improvement, fr_phase, optimal_degree
from repro.spanning import random_spanning_tree
from repro.verify import judge

seeds = st.integers(min_value=0, max_value=5_000)
densities = st.floats(min_value=0.2, max_value=0.7, allow_nan=False)


def _tree_degrees(g) -> np.ndarray:
    """One row per spanning tree of *g*: its degree at every node, in
    ``g.nodes()`` order. Enumerates every (n − 1)-subset of the edges
    and keeps the acyclic ones, so it is for n ≤ 7 only."""
    index = {v: i for i, v in enumerate(g.nodes())}
    edges = [(index[u], index[v]) for u, v in g.edges()]
    rows = []
    for chosen in itertools.combinations(edges, g.n - 1):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        deg = [0] * g.n
        for u, v in chosen:
            ru, rv = find(u), find(v)
            if ru == rv:
                break
            parent[ru] = rv
            deg[u] += 1
            deg[v] += 1
        else:
            rows.append(deg)
    return np.array(rows)


class TestSetBound:
    @given(st.integers(min_value=2, max_value=7), densities, seeds)
    @settings(max_examples=25, deadline=None)
    def test_equals_the_minimum_over_every_spanning_tree(self, n, p, seed):
        """For every nonempty S: set_bound(G, S) = ⌈min_T Σ_{v∈S} deg_T(v) / |S|⌉,
        with T over every spanning tree of G."""
        g = gnp_connected(n, p, seed=seed)
        nodes = g.nodes()
        masks = np.array(
            [[(s >> i) & 1 for s in range(1, 1 << n)] for i in range(n)]
        )
        least = (_tree_degrees(g) @ masks).min(axis=0)
        sizes = masks.sum(axis=0)
        for j, s in enumerate(range(1, 1 << n)):
            S = [v for i, v in enumerate(nodes) if (s >> i) & 1]
            assert set_bound(g, S) == -(-int(least[j]) // int(sizes[j])), S

    @given(st.integers(min_value=1, max_value=30), densities, seeds)
    @settings(max_examples=40, deadline=None)
    def test_closed_forms_of_min_degree_lower_bound(self, n, p, seed):
        """A singleton's set bound is c(v), the number of components of
        G − v; S = V gives ⌈2(n−1)/n⌉. So ``min_degree_lower_bound`` is
        the largest set bound over those sets."""
        g = gnp_connected(n, p, seed=seed)
        cuts = _cut_components(g)
        singletons = {v: set_bound(g, [v]) for v in g.nodes()}
        assert singletons == cuts
        whole = set_bound(g, g.nodes())
        assert whole == -(-2 * (n - 1) // n)
        assert min_degree_lower_bound(g) == max(whole, *singletons.values())

    @given(st.integers(min_value=2, max_value=10), densities, seeds, st.data())
    @settings(max_examples=30, deadline=None)
    def test_never_exceeds_the_optimum(self, n, p, seed, data):
        """The bound is sound for any S, and so is the judge's ``lb`` on
        any tree, improvable or not."""
        g = gnp_connected(n, p, seed=seed)
        opt = optimal_degree(g)
        S = data.draw(st.sets(st.sampled_from(g.nodes()), min_size=1))
        assert set_bound(g, S) <= opt
        tseed = data.draw(seeds)
        assert judge(g, random_spanning_tree(g, seed=tseed)).lb <= opt


class TestWitnessImpliesStoppingRule:
    def test_no_simple_improvement_on_a_witnessed_tree(self):
        """Whenever ``fr_phase`` returns a witness W, the published
        stopping rule holds: ``find_simple_improvement`` finds no move.
        Its candidate edges have both endpoints of degree ≤ k − 2, so
        outside W, and a witness puts them in one component of T − W.
        Their tree path avoids W, which keeps every degree-k vertex (one
        is never unmarked), so the cycle has no degree-k vertex. Hence
        a stopping-rule postcondition on a run needs a search only on
        trees that are ``fr_improvable``."""
        witnesses = 0
        for seed in range(400):
            n = 4 + seed % 27
            g = gnp_connected(n, 0.1 + 0.05 * ((seed * 7) % 10), seed=seed)
            t = random_spanning_tree(g, seed=seed)
            if isinstance(fr_phase(g, t), Witness):
                witnesses += 1
                assert find_simple_improvement(g, t) is None, seed
        assert witnesses >= 50
