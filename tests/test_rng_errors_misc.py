"""Unit tests for rng, errors, viz.trajectory, and metrics details."""

import pytest

from repro import errors
from repro.graphs import complete, ring
from repro.mdst import run_mdst
from repro.rng import derive_seed, master_seed_sequence, stable_hash, substream
from repro.sim import MessageStats, SimulationReport
from repro.spanning import build_spanning_tree, greedy_hub_tree
from repro.viz import render_trajectory


class TestRng:
    def test_stable_hash_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")

    def test_substream_independence_and_reproducibility(self):
        a1 = substream(1, "alpha").random(5)
        a2 = substream(1, "alpha").random(5)
        b = substream(1, "beta").random(5)
        assert (a1 == a2).all()
        assert not (a1 == b).all()

    def test_derive_seed(self):
        s1 = derive_seed(7, "x")
        assert s1 == derive_seed(7, "x")
        assert s1 != derive_seed(7, "y")
        assert 0 <= s1 < 2**63

    def test_master_seed_validation(self):
        with pytest.raises(ValueError):
            master_seed_sequence(-1)
        assert master_seed_sequence(3) is not None


class TestErrorsHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_specific_parents(self):
        assert issubclass(errors.NotATreeError, errors.GraphError)
        assert issubclass(errors.ChannelError, errors.SimulationError)
        assert issubclass(errors.TerminationError, errors.ProtocolError)


class TestTrajectoryViz:
    def test_renders_rounds(self):
        g = complete(8)
        res = run_mdst(g, greedy_hub_tree(g))
        text = render_trajectory(res)
        assert "round" in text
        assert "final" in text
        assert "#" in text

    def test_no_rounds_case(self):
        g = ring(6)
        res = run_mdst(g, build_spanning_tree(g, method="cdfs").tree)
        assert "no improvement rounds" in render_trajectory(res)


class TestMetricsDetails:
    def test_counts_for(self):
        stats = MessageStats(n=8)
        from dataclasses import dataclass

        from repro.sim import Message

        @dataclass(frozen=True, slots=True)
        class A(Message):
            x: int

        @dataclass(frozen=True, slots=True)
        class B(Message):
            pass

        stats.charge(A(x=1))
        stats.charge(A(x=2))
        stats.charge(B())
        assert stats.counts_for("A") == 2
        assert stats.counts_for("A", "B") == 3
        assert stats.counts_for("C") == 0
        assert stats.max_id_fields == 1

    def test_report_from_stats(self):
        stats = MessageStats(n=4)
        stats.mark(1.0, "phase", {"k": 3})
        stats.deliveries = 1  # what a drive loop settles at exit
        stats.max_causal_depth = 5
        stats.max_sim_time = 2.5
        report = SimulationReport.from_stats(stats, events_processed=10, quiescent=True)
        assert report.causal_time == 5
        assert report.sim_time == 2.5
        assert report.marks[0][1] == "phase"


class TestStartupReportAccounting:
    def test_mdst_report_excludes_startup(self):
        """The paper's complexity excludes the startup construction; our
        accounting must match: MDegST report counts only protocol
        messages."""
        g = complete(8)
        startup = build_spanning_tree(g, method="ghs")
        res = run_mdst(g, startup.tree)
        assert startup.report.total_messages > 0
        # the protocol report has no GHS message types in it
        assert not any(
            t in res.report.by_type for t in ("Connect", "Initiate", "Test")
        )
