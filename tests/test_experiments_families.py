"""Tests for the new graph families and the experiment presets."""

import pytest

from repro.analysis import EXPERIMENTS, run_experiment
from repro.cli import main
from repro.errors import GraphError, UnknownNameError
from repro.graphs import (
    barbell,
    circulant,
    complete_bipartite,
    is_connected,
    make_family,
    min_degree_lower_bound,
)
from repro.mdst import run_mdst
from repro.sequential import optimal_degree
from repro.spanning import greedy_hub_tree


class TestCompleteBipartite:
    def test_structure(self):
        g = complete_bipartite(2, 5)
        assert g.n == 7 and g.m == 10
        assert is_connected(g)
        assert g.degree(0) == 5 and g.degree(3) == 2

    def test_validation(self):
        with pytest.raises(GraphError):
            complete_bipartite(0, 3)

    def test_forced_degree_optimum(self):
        # K_{2,6}: 7 tree edges land on 2 left nodes -> some left node
        # has tree degree >= ceil(7/2) = 4... actually >= 3 by pigeonhole
        g = complete_bipartite(2, 6)
        opt = optimal_degree(g)
        assert opt >= 3  # far above the trivial 2
        res = run_mdst(g, greedy_hub_tree(g))
        assert res.final_degree <= opt + 1

    def test_star_case(self):
        g = complete_bipartite(1, 5)
        assert min_degree_lower_bound(g) == 5


class TestBarbell:
    def test_structure(self):
        g = barbell(4, 2)
        assert g.n == 10
        assert is_connected(g)
        # bridge nodes are cut vertices with degree 2
        assert g.degree(4) == 2 and g.degree(5) == 2

    def test_validation(self):
        with pytest.raises(GraphError):
            barbell(2, 1)

    def test_mdst_runs(self):
        g = barbell(5, 3)
        res = run_mdst(g, greedy_hub_tree(g), check_invariants=True)
        assert res.final_tree.is_spanning_tree_of(g)


class TestCirculant:
    def test_structure(self):
        g = circulant(8, (1, 2))
        assert g.n == 8
        assert all(g.degree(u) == 4 for u in g.nodes())
        assert is_connected(g)

    def test_validation(self):
        with pytest.raises(GraphError):
            circulant(2)
        with pytest.raises(GraphError):
            circulant(5, (0,))
        with pytest.raises(GraphError):
            circulant(5, ())

    def test_hamiltonian_so_optimal_two(self):
        g = circulant(10, (1, 3))
        assert optimal_degree(g) == 2

    def test_mdst_reaches_low_degree(self):
        g = circulant(12, (1, 2, 3))
        res = run_mdst(g, greedy_hub_tree(g))
        assert res.final_degree <= 3


class TestFamilyRegistry:
    @pytest.mark.parametrize("name", ["bipartite", "barbell", "circulant"])
    def test_registered(self, name):
        g = make_family(name, 18, seed=0)
        assert is_connected(g)


class TestExperimentPresets:
    """The paper tables through their one shared definition."""

    def test_all_presets_listed(self):
        assert set(EXPERIMENTS) == {f"t{i}" for i in range(1, 10)}

    def test_unknown_raises(self):
        with pytest.raises(UnknownNameError, match="unknown experiment 't99'"):
            run_experiment("t99")

    def test_t1_preset(self):
        text, payload = run_experiment("t1")
        assert "T1" in text
        assert all(payload["holds"])

    def test_t2_preset(self):
        text, payload = run_experiment("t2")
        assert payload["per_round"].r_squared > 0.9

    def test_t4_preset(self):
        text, payload = run_experiment("t4")
        # measured `rounds (concurrent) ≤ 2·claim + 2` per instance: two
        # instances exceed certify's round rule (ROADMAP item 7), so a
        # change in either direction must show up here
        assert payload["within"] == {
            "complete-12": True,
            "wheel-14": True,
            "caterpillar-6x3": True,
            "caterpillar-8x4": False,
            "gnp-32": False,
        }

    def test_t5_preset(self):
        text, payload = run_experiment("t5")
        assert all(r > 1 for _n, r in payload["ratios"])  # above the bound

    def test_t6_preset(self):
        text, payload = run_experiment("t6")
        res = payload["by_method"]
        assert res["dfs"].messages <= res["greedy_hub"].messages

    def test_t7_preset(self):
        text, payload = run_experiment("t7")
        assert all(r.max_msg_fields <= 4 for r in payload["records"])

    def test_t8_preset(self):
        text, payload = run_experiment("t8")
        assert all(0 <= g <= 1 for g in payload["gaps"])

    def test_t9_preset(self):
        text, payload = run_experiment("t9")
        for cfgs in payload["by_case"].values():
            polished = cfgs["concurrent+polish"].final_degree
            assert polished <= cfgs["concurrent, no polish"].final_degree

    def test_cli_experiment(self, capsys):
        assert main(["experiment", "t5"]) == 0
        assert "Korach" in capsys.readouterr().out
