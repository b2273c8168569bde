"""Fault injection over every registered algorithm.

The paper's reliability assumption (reliable channels, non-crashing
processors) is load-bearing for the whole protocol-primitive layer:
convergecasts and wave echoes wait for *every* expected reply, so a
crashed node or a lossy link must stall the run — caught by the event
budget or the termination monitor — and never certify a corrupt tree.
These tests wrap ``crash_after`` / ``drop_messages`` around both
registered algorithms via the same ``wrap_factory`` hook the extinction
suite uses."""

import pytest

from repro.algorithms import ALGORITHMS
from repro.errors import ProtocolError, TerminationError
from repro.graphs import gnp_connected, ring
from repro.sim import (
    Network,
    all_terminated_at_quiescence,
    crash_after,
    drop_messages,
    wrap_factory,
)
from repro.spanning import extract_tree, greedy_hub_tree


def _factory_for(algorithm: str, tree):
    """The bare process factory of a registered algorithm (so faults can
    be injected below the runner's certification layer)."""
    return ALGORITHMS[algorithm].factory(
        tree.parent_map(), mode="concurrent", max_rounds=None
    )


def _fault_run(algorithm: str, graph, tree, plan):
    factory = wrap_factory(_factory_for(algorithm, tree), plan)
    net = Network(
        graph, factory, monitors=[all_terminated_at_quiescence()]
    )
    net.run(max_events=50_000)
    return net


class TestFaultsStallLoudly:
    """A fault must surface as TerminationError (event budget) or
    ProtocolError (monitor / handshake check) — never a silent result."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_crashed_node_stalls(self, algorithm):
        g = gnp_connected(12, 0.3, seed=3)
        t = greedy_hub_tree(g)
        victim = max(g.nodes())
        with pytest.raises((ProtocolError, TerminationError)):
            _fault_run(algorithm, g, t, {victim: crash_after(0)})

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_crash_after_some_progress_stalls(self, algorithm):
        g = gnp_connected(12, 0.3, seed=3)
        t = greedy_hub_tree(g)
        victim = sorted(g.nodes())[g.n // 2]
        with pytest.raises((ProtocolError, TerminationError)):
            _fault_run(algorithm, g, t, {victim: crash_after(3)})

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_mute_root_stalls(self, algorithm):
        g = ring(8)
        t = greedy_hub_tree(g)
        with pytest.raises((ProtocolError, TerminationError)):
            _fault_run(algorithm, g, t, {t.root: drop_messages(1.0)})

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_lossy_link_never_certifies_corrupt_tree(self, algorithm):
        """Partial loss either stalls loudly or — if the drops happened to
        hit nothing critical — still yields a certified spanning tree."""
        g = gnp_connected(10, 0.35, seed=5)
        t = greedy_hub_tree(g)
        for seed in range(4):
            plan = {1: drop_messages(0.3, seed=seed)}
            try:
                net = _fault_run(algorithm, g, t, plan)
            except (ProtocolError, TerminationError):
                continue  # stalled loudly: the acceptable outcome
            final = extract_tree(net, g)
            assert final.is_spanning_tree_of(g)
            assert final.max_degree() <= t.max_degree()

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_no_fault_no_effect(self, algorithm):
        g = gnp_connected(10, 0.35, seed=5)
        t = greedy_hub_tree(g)
        net = _fault_run(algorithm, g, t, {})
        final = extract_tree(net, g)
        assert final.is_spanning_tree_of(g)

    def test_every_registered_algorithm_is_covered(self):
        """Every registered entry's factory yields the bare per-node
        factory the fault wrapper wraps, so ALGORITHMS covers them all."""
        for name in ALGORITHMS:
            assert callable(_factory_for(name, greedy_hub_tree(ring(4))))
