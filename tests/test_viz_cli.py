"""Tests for ASCII viz and the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.graphs import complete, ring, tree_from_edges
from repro.mdst import run_mdst
from repro.sim import TraceRecorder
from repro.spanning import bfs_tree, greedy_hub_tree
from repro.viz import (
    graph_summary,
    phase_timeline,
    render_adjacency,
    render_bar_chart,
    render_degree_histogram,
    render_tree,
    round_narrative,
)


def _module_env() -> dict[str, str]:
    """The environment that runs ``python -m repro`` from the source
    tree, whether or not the package is installed."""
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestAsciiTree:
    def test_render_contains_all_nodes(self):
        t = tree_from_edges(0, [(0, 1), (0, 2), (2, 3)])
        text = render_tree(t)
        for u in (0, 1, 2, 3):
            assert str(u) in text
        assert "deg" in text

    def test_max_degree_flagged(self):
        t = tree_from_edges(0, [(0, 1), (0, 2), (0, 3)])
        text = render_tree(t)
        assert "0 (deg 3) *" in text

    def test_max_depth_truncation(self):
        t = tree_from_edges(0, [(0, 1), (1, 2), (2, 3), (3, 4)])
        text = render_tree(t, max_depth=1)
        assert "below" in text

    def test_degree_histogram(self):
        t = bfs_tree(ring(6))
        text = render_degree_histogram(t)
        assert "degree" in text and "#" in text

    def test_singleton(self):
        t = tree_from_edges(5, [])
        assert "5" in render_tree(t)


class TestAsciiGraph:
    def test_summary(self):
        text = graph_summary(complete(5))
        assert "n=5" in text and "max=4" in text

    def test_empty(self):
        from repro.graphs import Graph

        assert graph_summary(Graph()) == "empty graph"

    def test_adjacency(self):
        text = render_adjacency(ring(4))
        assert "■" in text

    def test_adjacency_too_big(self):
        assert "omitted" in render_adjacency(complete(40))


class TestBarChart:
    def test_scales_to_peak(self):
        text = render_bar_chart([("a", 10.0), ("bb", 5.0)], width=10)
        lines = text.splitlines()
        assert lines[0].endswith("#" * 10)
        assert lines[1].endswith("#" * 5)
        assert lines[1].startswith("bb")

    def test_zero_and_empty(self):
        assert render_bar_chart([]) == "(no data)"
        text = render_bar_chart([("x", 0.0)])
        assert "#" not in text

    def test_deterministic_value_formatting(self):
        text = render_bar_chart([("x", 2.50), ("y", 3.0)])
        assert "2.5" in text and "3" in text and "3.00" not in text


class TestTraceView:
    def test_phase_timeline_and_narrative(self):
        g = complete(6)
        tr = TraceRecorder()
        run_mdst(g, greedy_hub_tree(g), trace=tr)
        timeline = phase_timeline(tr)
        assert "SearchDegree" in timeline
        narrative = round_narrative(tr)
        assert "BFS wave" in narrative


class TestCli:
    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "complete" in out

    def test_run(self, capsys):
        assert main(["run", "--family", "complete", "--n", "8", "--initial", "greedy_hub"]) == 0
        out = capsys.readouterr().out
        assert "degree:" in out

    def test_run_show_tree(self, capsys):
        assert (
            main(
                [
                    "run", "--family", "complete", "--n", "6",
                    "--initial", "greedy_hub", "--show-tree",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "deg" in out

    def test_exact(self, capsys):
        assert main(["exact", "--family", "complete", "--n", "6"]) == 0
        assert "optimal degree = 2" in capsys.readouterr().out

    def test_certify(self, capsys):
        assert (
            main(
                [
                    "certify", "--family", "complete", "--n", "8",
                    "--initial", "greedy_hub",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_sweep(self, capsys):
        assert (
            main(
                [
                    "sweep", "--families", "complete", "--sizes", "8",
                    "--seeds", "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "MDegST sweep" in out

    def test_entrypoint_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "families"],
            capture_output=True,
            text=True,
            env=_module_env(),
        )
        assert proc.returncode == 0
        assert "ring" in proc.stdout

    @pytest.mark.parametrize("command", [["families"], ["bench", "--list"]])
    def test_closed_stdout_exits_without_a_traceback(self, command):
        """``repro families | head -1``: the reader leaves before the
        output ends. Here its end of the pipe is closed before the first
        write, so the write fails whether stdout is line- or
        block-buffered; the CLI stops with exit 1 and an empty stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *command],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=_module_env(),
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1
