"""Named fault plans + the fault axis through the run path.

The plan table (:data:`repro.sim.faults.FAULT_PLANS`) makes fault plans
spec-addressable strings, like the delay models; the
harness flattens a faulty run that stalls loudly into an
``outcome="stalled"`` record instead of raising, so fault scenarios can
tabulate stall rates. These tests pin the plan table, plan
determinism, and the stall-record contract.
"""

import pytest

from repro.analysis.axes import AXIS
from repro.analysis.harness import SweepSpec, run_single
from repro.errors import AnalysisError
from repro.sim.faults import FAULT_PLANS, NO_FAULT, fault_plan_from_name


class TestRegistry:
    def test_builtin_names(self):
        assert set(FAULT_PLANS) == {
            "none", "crash_one", "crash_storm", "lossy_light", "lossy_heavy",
        }

    def test_none_is_empty(self):
        assert fault_plan_from_name(NO_FAULT, 16, seed=3) == {}

    def test_unknown_name_errors_with_choices(self):
        with pytest.raises(ValueError, match="lossy_light"):
            fault_plan_from_name("nope", 16)

    @pytest.mark.parametrize("name", sorted(FAULT_PLANS))
    def test_victims_are_valid_node_ids(self, name):
        for n in (3, 8, 17):
            plan = fault_plan_from_name(name, n, seed=1)
            assert all(0 <= v < n for v in plan)

    def test_plans_are_deterministic_in_n_and_seed(self):
        a = fault_plan_from_name("crash_storm", 20, seed=7)
        b = fault_plan_from_name("crash_storm", 20, seed=7)
        c = fault_plan_from_name("crash_storm", 20, seed=8)
        assert sorted(a) == sorted(b)
        # different seed picks a (generically) different victim set
        assert sorted(a) != sorted(c) or len(a) == len(c)

    def test_crash_storm_hits_multiple_nodes(self):
        assert len(fault_plan_from_name("crash_storm", 16, seed=0)) >= 2

    def test_lossy_plans_cover_every_node(self):
        assert sorted(fault_plan_from_name("lossy_heavy", 9, seed=0)) == list(range(9))

    def test_a_table_entry_is_a_plan_on_the_axis(self, monkeypatch):
        monkeypatch.setitem(FAULT_PLANS, "test_noop", lambda n, seed: {})
        assert fault_plan_from_name("test_noop", 5) == {}
        assert AXIS["fault"].check("test_noop") == "test_noop"


class TestFaultAxisRunPath:
    def test_stalled_record_contract(self):
        r = run_single("gnp_sparse", 12, 0, fault="lossy_heavy")
        assert r.outcome == "stalled" and not r.ok
        assert r.fault == "lossy_heavy"
        assert r.k_final == r.k_initial  # no improvement was certified
        assert r.rounds == 0 and r.messages == 0 and r.causal_time == 0

    def test_fault_free_record_is_ok(self):
        r = run_single("gnp_sparse", 12, 0)
        assert r.ok and r.outcome == "ok" and r.fault == NO_FAULT

    def test_stalled_record_is_deterministic(self):
        a = run_single("gnp_sparse", 12, 0, fault="crash_storm")
        b = run_single("gnp_sparse", 12, 0, fault="crash_storm")
        assert a == b

    @pytest.mark.parametrize("algorithm", ("blin_butelle", "fr_local"))
    def test_every_algorithm_accepts_the_fault_axis(self, algorithm):
        r = run_single("gnp_sparse", 10, 1, fault="crash_storm", algorithm=algorithm)
        assert r.outcome in ("ok", "stalled")

    def test_json_roundtrip_keeps_fault_and_outcome(self):
        from repro.analysis.records import RunRecord

        r = run_single("gnp_sparse", 12, 0, fault="lossy_heavy")
        assert RunRecord.from_json_dict(r.to_json_dict()) == r

    def test_sweep_spec_validates_fault_axis_eagerly(self):
        with pytest.raises(AnalysisError, match="fault plan"):
            SweepSpec(families=("ring",), sizes=(8,), faults=("typo",))

    def test_sweep_cells_carry_the_fault_axis(self):
        spec = SweepSpec(
            families=("ring",), sizes=(8,), seeds=(0,),
            faults=("none", "crash_one"),
        )
        assert [c.fault for c in spec.cells()] == ["none", "crash_one"]
