"""Property-based tests of the full protocol stack: random topologies ×
random initial trees × random asynchronous schedules, always upholding
the paper's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import gnp_connected, set_bound
from repro.mdst import MDSTConfig, run_mdst
from repro.sequential import Witness, fr_phase, fuerer_raghavachari, local_search_mdst
from repro.sim import ExponentialDelay, UniformDelay, UnitDelay
from repro.spanning import build_spanning_tree, random_spanning_tree
from repro.verify import forest_has_no_crossing_edges

sizes = st.integers(min_value=3, max_value=18)
seeds = st.integers(min_value=0, max_value=10_000)
densities = st.floats(min_value=0.1, max_value=0.6, allow_nan=False)
modes = st.sampled_from(["concurrent", "single"])
delay_factories = st.sampled_from(
    [UnitDelay, UniformDelay, ExponentialDelay]
)


@st.composite
def instances(draw):
    n = draw(sizes)
    p = draw(densities)
    gseed = draw(seeds)
    tseed = draw(seeds)
    graph = gnp_connected(n, p, seed=gseed)
    tree = random_spanning_tree(graph, seed=tseed)
    return graph, tree


class TestProtocolProperties:
    @given(instances(), modes, delay_factories, seeds)
    @settings(max_examples=40, deadline=None)
    def test_safety_under_any_schedule(self, inst, mode, delay_cls, sched_seed):
        """For every topology, initial tree, mode and schedule: the result
        is a spanning tree, the degree never worsens, the protocol
        terminates by process, and message sizes respect C5."""
        graph, tree = inst
        res = run_mdst(
            graph,
            tree,
            config=MDSTConfig(mode=mode),
            delay=delay_cls(),
            seed=sched_seed,
            check_invariants=True,
        )
        assert res.final_tree.is_spanning_tree_of(graph)
        assert res.final_degree <= res.initial_degree
        assert res.report.quiescent
        assert res.report.max_id_fields <= 4

    @given(instances())
    @settings(max_examples=25, deadline=None)
    def test_tracks_fuerer_raghavachari_within_one(self, inst):
        """Both procedures are local improvement with different
        improvement orders, so neither dominates instance-wise (hypothesis
        found runs where the distributed order lands in a strictly better
        local optimum than F-R!). The defensible relation: they end within
        one degree level of each other — F-R certified ≤ Δ*+1 and the
        distributed result ≥ Δ* trivially, plus the empirical upper side."""
        graph, tree = inst
        res = run_mdst(graph, tree)
        fr_tree, _ = fuerer_raghavachari(graph, tree)
        assert abs(fr_tree.max_degree() - res.final_degree) <= 1

    @given(instances())
    @settings(max_examples=25, deadline=None)
    def test_matches_sequential_twin_quality_class(self, inst):
        """The distributed result is within one level of its sequential
        twin (same improvement rule, different improvement order)."""
        graph, tree = inst
        res = run_mdst(graph, tree)
        twin, _ = local_search_mdst(graph, tree)
        assert abs(res.final_degree - twin.max_degree()) <= 1

    @given(instances())
    @settings(max_examples=20, deadline=None)
    def test_fr_fixpoint_certificate(self, inst):
        """After F-R the tree is always certified within Δ* + 1."""
        graph, tree = inst
        fr_tree, _ = fuerer_raghavachari(graph, tree)
        phase = fr_phase(graph, fr_tree)
        assert isinstance(phase, Witness)
        assert forest_has_no_crossing_edges(graph, fr_tree, phase.marked)
        assert set_bound(graph, phase.marked) >= fr_tree.max_degree() - 1

    @given(sizes, seeds, modes)
    @settings(max_examples=20, deadline=None)
    def test_full_pipeline_from_distributed_startup(self, n, seed, mode):
        """graph -> distributed startup (echo) -> protocol, end to end."""
        graph = gnp_connected(n, 0.3, seed=seed)
        startup = build_spanning_tree(graph, method="echo", seed=seed)
        res = run_mdst(graph, startup.tree, config=MDSTConfig(mode=mode), seed=seed)
        assert res.final_tree.is_spanning_tree_of(graph)
        assert res.final_degree <= startup.degree
