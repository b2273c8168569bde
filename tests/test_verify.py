"""Tests for the verification / certification module."""

import dataclasses

import pytest

from repro.analysis.batch import CellTemplate
from repro.analysis.executor import RunSpec
from repro.errors import VerificationError
from repro.graphs import (
    Graph,
    complete,
    gnp_connected,
    make_family,
    ring,
    set_bound,
    star,
    tree_from_edges,
    wheel,
)
from repro.mdst import run_mdst
from repro.sequential import Improvement, Witness, fr_phase, fuerer_raghavachari
from repro.spanning import bfs_tree, greedy_hub_tree
from repro.verify import (
    Judgement,
    assert_degree_not_worse,
    assert_spanning_tree,
    certify_run,
    certification,
    forest_has_no_crossing_edges,
    judge,
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
        assert set_bound(g, phase.marked) == t.max_degree() == 5

    def test_forest_condition_direct(self):
        g = complete(4)
        t = greedy_hub_tree(g)  # star at some hub
        hub = t.root
        # removing the hub leaves 3 isolated leaves: K4 edges join them
        assert not forest_has_no_crossing_edges(g, t, [hub])
        # removing everything leaves nothing to cross
        assert forest_has_no_crossing_edges(g, t, g.nodes())


class TestJudge:
    def test_witness_lb_beats_the_cut_vertex_bound(self):
        """K_{2,6} has no cut vertex (bound 2), but W = the two hubs
        leaves 6 components: Δ* ≥ ⌈7/2⌉ = 4."""
        g = make_family("bipartite", 8, seed=0)
        tree, _ = fuerer_raghavachari(g)
        assert judge(g, tree) == Judgement(lb=4, fr_improvable=False)

    def test_cut_vertex_bound_beats_every_candidate_set(self):
        """K4 on {0, 1, 3, 5} with leaves 2 and 4 hung on 3: c(3) = 3,
        but the witness and both degree sets only bound Δ* ≥ 2."""
        g = Graph(edges=[(0, 1), (0, 3), (0, 5), (1, 3), (1, 5), (3, 5),
                         (2, 3), (3, 4)])
        t = tree_from_edges(3, [(0, 1), (0, 5), (2, 3), (3, 4), (3, 5)])
        phase = fr_phase(g, t)
        assert isinstance(phase, Witness)
        assert set_bound(g, phase.marked) == 2
        assert judge(g, t) == Judgement(lb=3, fr_improvable=False)

    def test_improvable_tree_keeps_a_set_bound(self):
        g = complete(5)
        assert judge(g, greedy_hub_tree(g)) == Judgement(lb=2, fr_improvable=True)

    def test_set_bound_settles_an_improvable_tree(self):
        """pref_attach n=64 seed 2: fr_local stops at k=5 on a tree that
        F-R still improves. The cut-vertex bound alone gives Δ* ≥ 2;
        the set bound gives Δ* ≥ 4, so k ≤ lb + 1 holds anyway."""
        spec = RunSpec(family="pref_attach", n=64, seed=2, algorithm="fr_local")
        res = CellTemplate(spec).attempt(spec.seed, None)[3]
        assert res.final_degree == 5
        assert judge(res.graph, res.final_tree) == Judgement(lb=4, fr_improvable=True)

    def test_forged_witness_raises(self, monkeypatch):
        g = complete(4)
        t = greedy_hub_tree(g)
        forged = Witness(frozenset({t.root}))  # K4 edges join the leaves
        monkeypatch.setattr(certification, "fr_phase", lambda graph, tree: forged)
        with pytest.raises(VerificationError, match="proves only Δ\\* ≥ 1 < k − 1"):
            judge(g, t)

    def test_weak_witness_raises(self, monkeypatch):
        """A witness that holds but proves less than k − 1."""
        g = star(6)
        t = bfs_tree(g)
        weak = Witness(frozenset(g.nodes()))  # set bound ⌈10/6⌉ = 2 < k − 1 = 4
        monkeypatch.setattr(certification, "fr_phase", lambda graph, tree: weak)
        with pytest.raises(VerificationError, match="proves only Δ\\* ≥ 2 < k − 1"):
            judge(g, t)


class TestCertifyRun:
    def test_complete_graph_certification(self):
        g = complete(8)
        res = run_mdst(g, greedy_hub_tree(g))
        assert certify_run(res).splitlines() == [
            "  PASS  F-R witness: Δ* ≥ 2, so k ≤ Δ*+1",
            "  PASS  within Δ*+1 (ground truth)",
            "  PASS  rounds within claim",
            "        Δ* = 2",
        ]

    def test_large_instance_uses_fr_certificate(self):
        g = gnp_connected(30, 0.2, seed=6)
        res = run_mdst(g, greedy_hub_tree(g))
        summary = certify_run(res, exact_limit=16)
        # beyond the exact solver only the witness speaks to Δ*+1
        assert "----  within Δ*+1 (ground truth)" in summary
        assert "Δ* =" not in summary

    def test_improvable_tree_claims_no_quality_bound(self):
        """pref_attach n=64 seed 2: fr_local stops at k=5 on a tree that
        a complete F-R phase still improves."""
        spec = RunSpec(family="pref_attach", n=64, seed=2, algorithm="fr_local")
        res = CellTemplate(spec).attempt(spec.seed, None)[3]
        assert res.final_degree == 5
        assert judge(res.graph, res.final_tree).fr_improvable
        summary = certify_run(res)
        assert "FAIL  F-R improvement found" in summary
        for line in summary.splitlines():
            assert not (
                line.strip().startswith("PASS")
                and ("Δ*+1" in line or "ground truth" in line)
            ), line

    def test_witness_above_exact_limit(self):
        spec = RunSpec(family="geometric", n=64, seed=0)
        res = CellTemplate(spec).attempt(spec.seed, None)[3]
        judgement = judge(res.graph, res.final_tree)
        assert not judgement.fr_improvable
        assert judgement.lb >= res.final_degree - 1
        summary = certify_run(res)
        assert f"PASS  F-R witness: Δ* ≥ {judgement.lb}" in summary
        assert "----  within Δ*+1 (ground truth)" in summary

    def test_wheel_certification(self):
        g = wheel(10)
        res = run_mdst(g, greedy_hub_tree(g))
        assert "PASS  within Δ*+1 (ground truth)" in certify_run(res)

    def test_structural_failure_raises(self):
        g = complete(6)
        res = run_mdst(g, greedy_hub_tree(g))
        worse = dataclasses.replace(
            res, initial_tree=res.final_tree, final_tree=res.initial_tree
        )
        with pytest.raises(VerificationError, match="degree increased"):
            certify_run(worse)
