"""Tests for the verification / certification module."""

import pytest

from repro.analysis.batch import CellTemplate
from repro.analysis.executor import RunSpec
from repro.errors import VerificationError
from repro.graphs import (
    complete,
    gnp_connected,
    ring,
    star,
    tree_from_edges,
    wheel,
)
from repro.mdst import run_mdst
from repro.sequential import Improvement, Witness, fr_phase
from repro.spanning import bfs_tree, greedy_hub_tree
from repro.verify import (
    assert_degree_not_worse,
    assert_spanning_tree,
    certify_run,
    forest_has_no_crossing_edges,
)


class TestTreeChecks:
    def test_valid_spanning_tree(self):
        g = ring(5)
        assert_spanning_tree(g, bfs_tree(g))  # no raise

    def test_wrong_node_set(self):
        g = ring(5)
        t = tree_from_edges(0, [(0, 1), (1, 2)])
        with pytest.raises(VerificationError):
            assert_spanning_tree(g, t)

    def test_non_graph_edge(self):
        g = ring(4)  # no chord (0,2)
        t = tree_from_edges(0, [(0, 1), (0, 2), (2, 3)])
        with pytest.raises(VerificationError):
            assert_spanning_tree(g, t)

    def test_degree_not_worse(self):
        g = complete(5)
        bad = greedy_hub_tree(g)  # star, degree 4
        good = tree_from_edges(0, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert_degree_not_worse(bad, good)
        with pytest.raises(VerificationError):
            assert_degree_not_worse(good, bad)


class TestLocalOptimality:
    def test_chain_is_always_optimal(self):
        g = complete(5)
        chain = tree_from_edges(0, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert isinstance(fr_phase(g, chain), Witness)

    def test_star_tree_in_complete_graph_not_optimal(self):
        g = complete(5)
        t = greedy_hub_tree(g)
        assert isinstance(fr_phase(g, t), Improvement)

    def test_star_graph_is_optimal(self):
        g = star(6)
        t = bfs_tree(g)
        phase = fr_phase(g, t)
        assert isinstance(phase, Witness)
        assert forest_has_no_crossing_edges(g, t, phase.marked)
        # W = {hub}, c = 5 leaves: Δ* ≥ 5 = k, so the tree is optimal
        assert phase.lb == t.max_degree() == 5

    def test_forest_condition_direct(self):
        g = complete(4)
        t = greedy_hub_tree(g)  # star at some hub
        hub = t.root
        # removing the hub leaves 3 isolated leaves: K4 edges join them
        assert not forest_has_no_crossing_edges(g, t, [hub])
        # removing everything leaves nothing to cross
        assert forest_has_no_crossing_edges(g, t, g.nodes())


class TestCertifyRun:
    def test_complete_graph_certification(self):
        g = complete(8)
        res = run_mdst(g, greedy_hub_tree(g))
        cert = certify_run(res)
        assert cert.all_structural
        assert cert.optimal == 2
        assert cert.within_one_of_optimal
        assert isinstance(cert.fr_phase, Witness)
        assert cert.rounds_within_claim
        assert "PASS" in cert.summary()

    def test_large_instance_uses_fr_certificate(self):
        g = gnp_connected(30, 0.2, seed=6)
        res = run_mdst(g, greedy_hub_tree(g))
        cert = certify_run(res, exact_limit=16)
        assert cert.optimal is None
        assert cert.all_structural
        # beyond the exact solver only the witness speaks to Δ*+1
        assert cert.within_one_of_optimal is None
        assert "----  within Δ*+1 (ground truth)" in cert.summary()

    def test_improvable_tree_claims_no_quality_bound(self):
        """pref_attach n=64 seed 2: fr_local stops at k=5 on a tree that
        a complete F-R phase still improves."""
        spec = RunSpec(family="pref_attach", n=64, seed=2, algorithm="fr_local")
        res = CellTemplate(spec).attempt(spec.seed, None)[3]
        cert = certify_run(res)
        assert res.final_degree == 5
        assert isinstance(cert.fr_phase, Improvement)
        assert cert.within_one_of_optimal is None
        summary = cert.summary()
        assert "FAIL  F-R improvement found" in summary
        for line in summary.splitlines():
            assert not (
                line.strip().startswith("PASS")
                and ("Δ*+1" in line or "ground truth" in line)
            ), line

    def test_witness_above_exact_limit(self):
        spec = RunSpec(family="geometric", n=64, seed=0)
        res = CellTemplate(spec).attempt(spec.seed, None)[3]
        cert = certify_run(res)
        phase = cert.fr_phase
        assert isinstance(phase, Witness)
        assert phase.lb >= res.final_degree - 1
        assert cert.within_one_of_optimal is None
        assert f"PASS  F-R witness |W| = {len(phase.marked)}" in cert.summary()

    def test_wheel_certification(self):
        g = wheel(10)
        res = run_mdst(g, greedy_hub_tree(g))
        cert = certify_run(res)
        assert cert.within_one_of_optimal
