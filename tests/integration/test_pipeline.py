"""Integration tests: the full stack on realistic scenarios, plus the
examples as executable documentation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import SweepSpec, fit_claim, run_sweep
from repro.graphs import make_family
from repro.mdst import MDSTConfig, run_mdst
from repro.sequential import fuerer_raghavachari, optimal_degree
from repro.sim import PerLinkDelay
from repro.spanning import build_spanning_tree
from repro.verify import certify_run

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.py"))


class TestEndToEnd:
    @pytest.mark.parametrize(
        "family", ["complete", "wheel", "gnp_dense", "geometric", "pref_attach"]
    )
    def test_pipeline_all_families(self, family):
        """graph family -> GHS startup -> protocol -> certification."""
        graph = make_family(family, 20, seed=3)
        startup = build_spanning_tree(graph, method="ghs", seed=3)
        result = run_mdst(graph, startup.tree, seed=3)
        # the structural checks raise on failure
        summary = certify_run(result, exact_limit=14)
        assert "PASS  rounds within claim" in summary

    def test_small_instance_full_ground_truth(self):
        """On a fully solvable instance, every layer must agree."""
        graph = make_family("gnp_dense", 12, seed=9)
        startup = build_spanning_tree(graph, method="echo", seed=9)
        result = run_mdst(graph, startup.tree, seed=9)
        fr_tree, _ = fuerer_raghavachari(graph, startup.tree)
        opt = optimal_degree(graph)
        assert fr_tree.max_degree() <= opt + 1
        assert result.final_degree <= startup.degree
        assert result.final_degree >= opt  # can't beat the optimum

    def test_adversarial_everything(self):
        """Worst initial tree + adversarial delays + concurrent mode."""
        graph = make_family("pref_attach", 40, seed=1)
        startup = build_spanning_tree(graph, method="greedy_hub")
        result = run_mdst(
            graph,
            startup.tree,
            config=MDSTConfig(mode="concurrent"),
            delay=PerLinkDelay(),
            seed=99,
            check_invariants=True,
        )
        assert result.final_tree.is_spanning_tree_of(graph)
        assert result.final_degree < startup.degree  # hubs must improve

    def test_sweep_supports_claim_fits(self):
        spec = SweepSpec(
            families=("gnp_sparse",),
            sizes=(12, 20),
            seeds=(0, 1),
        )
        records = run_sweep(spec)
        fit = fit_claim(
            records,
            x_of=lambda r: (r.rounds + 1) * r.m,
            y_of=lambda r: r.messages,
        )
        assert fit.r_squared > 0.9  # per-round budget is Θ(m)


class TestExamplesRun:
    @pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
    def test_example_runs_clean(self, script):
        # examples import repro from the source tree whether or not the
        # package is installed: extend PYTHONPATH with src explicitly
        src = str(Path(__file__).parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip()
