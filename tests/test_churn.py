"""Mid-run churn (:mod:`repro.sim.churn`): the plan table, wrapper
mechanics, stall-vs-corruption classification and the churn axis through
the run/sweep/batch path.

The load-bearing claim: lossless in-order churn is schedule-equivalent
to admissible asynchrony, so a *completed* churn run must still satisfy
every certification — a plan may stall a run loudly
(``outcome="stalled"``) but must never corrupt it silently.
"""

import pytest

from repro.analysis.axes import AXIS
from repro.analysis.batch import CellTemplate, run_cells
from repro.analysis.executor import RunSpec, SerialExecutor
from repro.analysis.harness import SweepSpec, run_single, run_sweep
from repro.analysis.records import RunRecord
from repro.errors import AnalysisError, ProtocolError, StallError
from repro.sim.churn import (
    CHURN_PLANS,
    NO_CHURN,
    churn_plan_from_name,
    crash_restart,
    flap_link,
    merge_plans,
)


class TestRegistry:
    def test_builtin_names(self):
        assert set(CHURN_PLANS) == {
            "none", "restart_one", "restart_wave", "flap_edge", "churn_storm",
        }

    def test_none_is_empty(self):
        assert churn_plan_from_name(NO_CHURN, 16, seed=3) == {}

    def test_unknown_name_errors_with_choices(self):
        with pytest.raises(ValueError, match="restart_one"):
            churn_plan_from_name("nope", 16)

    @pytest.mark.parametrize("name", sorted(CHURN_PLANS))
    def test_victims_are_valid_node_ids(self, name):
        for n in (3, 8, 17):
            plan = churn_plan_from_name(name, n, seed=1)
            assert all(0 <= v < n for v in plan)

    def test_plans_are_deterministic_in_n_and_seed(self):
        a = churn_plan_from_name("restart_wave", 20, seed=7)
        b = churn_plan_from_name("restart_wave", 20, seed=7)
        c = churn_plan_from_name("restart_wave", 20, seed=8)
        assert sorted(a) == sorted(b)
        assert sorted(a) != sorted(c) or len(a) == len(c)

    def test_restart_wave_hits_multiple_nodes(self):
        assert len(churn_plan_from_name("restart_wave", 16, seed=0)) >= 2

    def test_tiny_networks_are_left_alone(self):
        # below the plan floors churn would be indistinguishable from a
        # permanent outage; the plans opt out instead
        assert churn_plan_from_name("restart_one", 2, seed=0) == {}
        assert churn_plan_from_name("flap_edge", 2, seed=0) == {}

    def test_a_table_entry_is_a_plan_on_the_axis(self, monkeypatch):
        monkeypatch.setitem(CHURN_PLANS, "test_noop", lambda n, seed: {})
        assert churn_plan_from_name("test_noop", 5) == {}
        assert AXIS["churn"].check("test_noop") == "test_noop"


class TestWrappers:
    def test_crash_restart_validates_arguments(self):
        with pytest.raises(ValueError, match="down_after"):
            crash_restart(-1, 2)
        with pytest.raises(ValueError, match="hold"):
            crash_restart(2, 0)

    def test_flap_link_validates_arguments(self):
        with pytest.raises(ValueError, match="down_after"):
            flap_link(1, -1, 2)
        with pytest.raises(ValueError, match="hold"):
            flap_link(1, 2, 0)

    def test_crash_restart_replays_held_events_in_arrival_order(self):
        class FakeProc:
            def __init__(self):
                self.log = []
                self.children = set()

            def on_start(self):
                self.log.append("start")

            def on_message(self, sender, msg):
                self.log.append((sender, msg))

        proc = crash_restart(1, 3)(FakeProc())
        proc.on_start()  # handled event 1 -> goes down after it
        for i in range(3):  # held while down
            proc.on_message(i, f"m{i}")
        # rejoin replays all three in arrival order
        assert proc.log == ["start", (0, "m0"), (1, "m1"), (2, "m2")]
        proc.on_message(9, "after")  # back to normal delivery
        assert proc.log[-1] == (9, "after")

    def test_crash_restart_strands_below_hold_threshold(self):
        class FakeProc:
            def __init__(self):
                self.log = []
                self.children = set()

            def on_start(self):
                self.log.append("start")

            def on_message(self, sender, msg):
                self.log.append((sender, msg))

        proc = crash_restart(1, 5)(FakeProc())
        proc.on_start()
        proc.on_message(0, "held")
        assert proc.log == ["start"]  # the node is down, the event held

    def test_merge_plans_composes_left_innermost(self):
        order = []

        def inner(proc):
            order.append("inner")
            return proc

        def outer(proc):
            order.append("outer")
            return proc

        plan = merge_plans({3: inner}, {3: outer, 4: outer})
        plan[3](object())
        assert order == ["inner", "outer"]
        assert sorted(plan) == [3, 4]


class TestStallClassification:
    def test_stall_error_is_a_protocol_error(self):
        assert issubclass(StallError, ProtocolError)

    def test_template_flattens_stalls_only_under_churn(self):
        spec = RunSpec(
            family="gnp_sparse", n=8, seed=0, initial_method="random",
            mode="concurrent", delay="unit", algorithm="blin_butelle",
            churn="restart_one",
        )
        template = CellTemplate(spec)
        assert template.flattens(StallError("stalled"))
        # corruption under churn is a real bug — never flattened
        assert not template.flattens(ProtocolError("corrupt"))

    def test_template_flattens_nothing_without_fault_or_churn(self):
        spec = RunSpec(
            family="gnp_sparse", n=8, seed=0, initial_method="random",
            mode="concurrent", delay="unit", algorithm="blin_butelle",
        )
        assert not CellTemplate(spec).flattens(StallError("stalled"))

    def test_template_rejects_unknown_churn_eagerly(self):
        spec = RunSpec(
            family="gnp_sparse", n=8, seed=0, initial_method="random",
            mode="concurrent", delay="unit", algorithm="blin_butelle",
            churn="not_a_plan",
        )
        with pytest.raises(ValueError, match="unknown churn plan"):
            CellTemplate(spec)


class TestChurnRunPath:
    def test_run_single_tags_records_with_the_plan(self):
        r = run_single("gnp_sparse", 8, 0, churn="restart_one")
        assert r.churn == "restart_one"
        assert r.outcome in ("ok", "stalled")

    @pytest.mark.parametrize("churn", [c for c in sorted(CHURN_PLANS) if c != "none"])
    def test_healthy_protocol_certifies_or_stalls(self, churn):
        """The dichotomy across every built-in plan: a churned run either
        completes certified or stalls loudly — corruption would raise
        out of run_single as a real bug."""
        for seed in range(3):
            r = run_single("gnp_sparse", 8, seed, churn=churn)
            assert r.outcome in ("ok", "stalled")
            if r.outcome == "stalled":
                assert r.k_final == r.k_initial and r.messages == 0

    def test_sweep_crosses_the_churn_axis(self):
        spec = SweepSpec(
            families=("gnp_sparse",), sizes=(8,), seeds=(0, 1),
            initial_methods=("random",), churns=("none", "restart_one"),
        )
        records = run_sweep(spec)
        assert len(records) == 4
        assert {r.churn for r in records} == {"none", "restart_one"}

    def test_sweep_spec_rejects_unknown_churn(self):
        with pytest.raises(AnalysisError, match="churn plan"):
            SweepSpec(churns=("restart_one", "nope"))

    def test_sweep_spec_rejects_empty_churn_axis(self):
        with pytest.raises(AnalysisError):
            SweepSpec(churns=())

    def test_batched_equals_per_cell_under_churn(self):
        """The seed-group runner must agree bit-for-bit with per-cell
        execution when a churn plan is active (same wrappers, same seeds,
        same stall handling)."""
        specs = [
            RunSpec(
                family="gnp_sparse", n=8, seed=seed, initial_method="random",
                mode="concurrent", delay="unit", algorithm="blin_butelle",
                churn="restart_wave",
            )
            for seed in range(4)
        ]
        batched = run_cells(specs)
        per_cell = SerialExecutor(batch=False).run(specs)
        assert batched == per_cell

    def test_record_round_trips_with_churn(self):
        r = run_single("gnp_sparse", 8, 1, churn="restart_one")
        clone = RunRecord.from_json_dict(r.to_json_dict())
        assert clone == r and clone.churn == "restart_one"

    def test_legacy_record_without_churn_loads_as_churn_free(self):
        data = run_single("gnp_sparse", 8, 0).to_json_dict()
        del data["churn"]
        assert RunRecord.from_json_dict(data).churn == NO_CHURN
