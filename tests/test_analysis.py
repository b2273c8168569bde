"""Tests for the analysis harness, aggregation, fitting and tables."""

import pytest

from repro.analysis import (
    RunRecord,
    SweepSpec,
    Table,
    fit_affine,
    fit_claim,
    fit_proportional,
    group_by,
    load_records,
    render_table,
    run_single,
    run_sweep,
    save_records,
    summarize,
)
from repro.errors import AnalysisError


def _record(**overrides):
    base = dict(
        family="gnp_sparse",
        n=16,
        m=24,
        seed=0,
        initial_method="echo",
        mode="concurrent",
        delay="unit",
        k_initial=6,
        k_final=3,
        rounds=4,
        messages=800,
        causal_time=120,
        bits=9000,
        max_msg_fields=4,
    )
    base.update(overrides)
    return RunRecord(**base)


class TestRunRecord:
    def test_derived_metrics(self):
        r = _record()
        assert r.degree_drop == 3
        assert r.messages_normalized == 800 / (4 * 24)
        assert r.time_normalized == 120 / (4 * 16)

    def test_json_roundtrip(self, tmp_path):
        recs = [_record(seed=s) for s in range(3)]
        path = tmp_path / "records.jsonl"
        save_records(recs, path)
        back = load_records(path)
        assert back == recs

    def test_judgement_fields_round_trip(self):
        rec = _record(lb=3, fr_improvable=True)
        assert RunRecord.from_json_dict(rec.to_json_dict()) == rec

    def test_records_saved_before_the_judge_load_uncertified_defaults(self):
        data = _record(lb=3, fr_improvable=True).to_json_dict()
        del data["lb"], data["fr_improvable"]
        old = RunRecord.from_json_dict(data)
        assert (old.lb, old.fr_improvable) == (0, False)
        assert old == _record()

    def test_completed_runs_carry_their_judgement(self):
        rec = run_single("pref_attach", 64, seed=2, algorithm="fr_local")
        assert rec.fr_improvable
        assert 2 <= rec.lb <= rec.k_final


class TestHarness:
    def test_run_single(self):
        rec = run_single("gnp_sparse", 16, seed=1)
        assert rec.n == 16
        assert rec.k_final <= rec.k_initial
        assert rec.max_msg_fields <= 4
        assert rec.startup_messages > 0

    def test_run_single_deterministic(self):
        a = run_single("geometric", 14, seed=2, delay="uniform")
        b = run_single("geometric", 14, seed=2, delay="uniform")
        assert a == b

    def test_run_sweep_grid(self):
        spec = SweepSpec(
            families=("complete",),
            sizes=(8,),
            seeds=(0, 1),
            modes=("concurrent", "single"),
        )
        records = run_sweep(spec)
        assert len(records) == 4
        assert {r.mode for r in records} == {"concurrent", "single"}

    def test_empty_spec_rejected(self):
        with pytest.raises(AnalysisError):
            SweepSpec(families=())


class TestAggregate:
    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == 2.0
        assert s.min == 1.0 and s.max == 3.0
        assert "±" in s.fmt()

    def test_summarize_empty_raises(self):
        with pytest.raises(AnalysisError):
            summarize([])

    def test_group_by(self):
        recs = [_record(seed=0, n=8), _record(seed=1, n=8), _record(seed=0, n=16)]
        groups = group_by(recs, key=lambda r: r.n)
        assert set(groups) == {8, 16}
        assert len(groups[8]) == 2


class TestFitting:
    def test_proportional_exact(self):
        fit = fit_proportional([1, 2, 3], [2, 4, 6])
        assert fit.slope == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert "R²" in fit.fmt()

    def test_affine(self):
        fit = fit_affine([0, 1, 2], [1, 3, 5])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)

    def test_too_few_points(self):
        with pytest.raises(AnalysisError):
            fit_proportional([1], [1])

    def test_degenerate_x(self):
        with pytest.raises(AnalysisError):
            fit_proportional([0, 0], [1, 2])

    def test_fit_claim_c2_shape(self):
        # construct records that exactly follow messages = 3·(drop+1)·m
        recs = [
            _record(m=m, k_initial=6, k_final=3, messages=3 * 4 * m)
            for m in (10, 20, 40)
        ]
        fit = fit_claim(
            recs,
            x_of=lambda r: (r.degree_drop + 1) * r.m,
            y_of=lambda r: r.messages,
        )
        assert fit.slope == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)


class TestTables:
    def test_render_alignment(self):
        text = render_table(
            ["name", "value"], [["alpha", 1], ["b", 22]], title="T"
        )
        assert "T" in text and "alpha" in text
        lines = text.splitlines()
        assert lines[2].startswith("name")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["x", "y"]])

    def test_table_builder(self):
        t = Table(["a", "b"])
        t.add(1, 2)
        with pytest.raises(ValueError):
            t.add(1)
        assert "1" in t.render()

    def test_bool_and_float_formatting(self):
        text = render_table(["x"], [[True], [1.23456]])
        assert "yes" in text and "1.235" in text
