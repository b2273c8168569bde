"""The scenario & campaign engine: specs, loader, library, runner,
report — including the determinism guarantee (serial vs. parallel vs.
warm cache produce byte-identical reports)."""

import json

import pytest

from repro.analysis.cache import ResultCache
from repro.errors import AnalysisError, UnknownNameError
from repro.scenarios import (
    SCENARIOS,
    CampaignSpec,
    ScenarioSpec,
    aggregate_scenario,
    builtin_campaign,
    dump_campaign,
    dump_scenario,
    load_campaign,
    load_scenario,
    render_markdown,
    report_json_dict,
    run_campaign,
    write_report,
)


class TestScenarioSpec:
    def test_defaults_validate(self):
        sc = ScenarioSpec(name="ok")
        assert sc.num_cells == len(sc.cells())

    def test_lists_normalize_to_tuples(self):
        sc = ScenarioSpec(name="ok", families=["ring"], sizes=[8], seeds=[0])
        assert sc.families == ("ring",) and sc.sizes == (8,) and sc.seeds == (0,)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"families": ("typo",)}, "family"),
            ({"delays": ("typo",)}, "delay"),
            ({"faults": ("typo",)}, "fault"),
            ({"churns": ("typo",)}, "churn plan"),
            ({"algorithms": ("typo",)}, "algorithm"),
            ({"initial_methods": ("typo",)}, "initial method"),
            ({"sizes": ()}, "non-empty"),
        ],
    )
    def test_axes_validate_eagerly(self, kwargs, match):
        with pytest.raises(AnalysisError, match=match):
            ScenarioSpec(name="bad", **kwargs)

    def test_bad_name_rejected(self):
        with pytest.raises(AnalysisError, match="scenario name"):
            ScenarioSpec(name="no spaces")

    def test_cells_cross_every_axis(self):
        sc = ScenarioSpec(
            name="x", families=("ring", "complete"), sizes=(8,),
            seeds=(0, 1), faults=("none", "crash_one"),
        )
        assert sc.num_cells == 2 * 2 * 2

    def test_tiny_keeps_regime_but_shrinks_grid(self):
        sc = SCENARIOS["paper_baseline"].tiny()
        assert sc.sizes == (10,) and sc.seeds == (0,)
        assert sc.families == SCENARIOS["paper_baseline"].families

    def test_scaled(self):
        sc = ScenarioSpec(name="x", sizes=(8, 16)).scaled(2)
        assert sc.sizes == (16, 32)
        with pytest.raises(AnalysisError):
            sc.scaled(0)


class TestCampaignSpec:
    def test_needs_scenarios(self):
        with pytest.raises(AnalysisError, match="at least one"):
            CampaignSpec(name="empty", scenarios=())

    def test_duplicate_scenario_names_rejected(self):
        sc = ScenarioSpec(name="dup", families=("ring",), sizes=(8,))
        with pytest.raises(AnalysisError, match="duplicate"):
            CampaignSpec(name="c", scenarios=(sc, sc))

    def test_num_cells_sums(self):
        camp = builtin_campaign(["lossy_links", "crash_storm"])
        assert camp.num_cells == (
            SCENARIOS["lossy_links"].num_cells
            + SCENARIOS["crash_storm"].num_cells
        )

    def test_unknown_builtin_errors_with_choices(self):
        with pytest.raises(UnknownNameError, match="paper_baseline"):
            builtin_campaign(["nope"])


class TestLibrary:
    def test_at_least_eight_builtins(self):
        assert len(SCENARIOS) >= 8

    def test_names_consistent(self):
        for name, sc in SCENARIOS.items():
            assert sc.name == name
            assert sc.description

    def test_fault_scenarios_include_the_baseline(self):
        """Fault scenarios keep a fault-free control group so stall
        rates are read against a baseline."""
        for name in ("lossy_links", "crash_storm"):
            assert "none" in SCENARIOS[name].faults

    def test_head_to_head_covers_every_algorithm(self):
        from repro.algorithms import ALGORITHMS

        assert SCENARIOS["head_to_head"].algorithms == tuple(sorted(ALGORITHMS))

    def test_churn_storm_sweeps_the_churn_axis_with_a_baseline(self):
        sc = SCENARIOS["churn_storm"]
        assert "none" in sc.churns  # control group, like fault scenarios
        assert {"restart_one", "churn_storm"} <= set(sc.churns)
        assert sc.num_cells == len(sc.cells())


class TestLoader:
    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_campaign_roundtrip(self, tmp_path, suffix):
        camp = builtin_campaign(["paper_baseline", "crash_storm"])
        path = dump_campaign(camp, tmp_path / f"c{suffix}")
        assert load_campaign(path) == camp

    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_scenario_roundtrip(self, tmp_path, suffix):
        sc = SCENARIOS["adversarial_delay"]
        path = dump_scenario(sc, tmp_path / f"s{suffix}")
        assert load_scenario(path) == sc

    def test_bare_scenario_file_loads_as_campaign(self, tmp_path):
        sc = SCENARIOS["lossy_links"]
        path = dump_scenario(sc, tmp_path / "s.toml")
        camp = load_campaign(path)
        assert camp.name == sc.name and camp.scenarios == (sc,)

    def test_unknown_field_is_a_friendly_error(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text('name = "x"\nfamilies = ["ring"]\ntypo = 1\n')
        with pytest.raises(AnalysisError, match="typo"):
            load_scenario(path)

    def test_invalid_toml_is_a_friendly_error(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text("name = [unclosed\n")
        with pytest.raises(AnalysisError, match="invalid TOML"):
            load_campaign(path)

    def test_unsupported_suffix(self, tmp_path):
        with pytest.raises(AnalysisError, match="suffix"):
            dump_campaign(builtin_campaign(["lossy_links"]), tmp_path / "c.yaml")
        with pytest.raises(AnalysisError, match="no such"):
            load_campaign(tmp_path / "missing.toml")

    def test_toml_escapes_quotes(self, tmp_path):
        sc = ScenarioSpec(
            name="quoted", description='has "quotes" and \\slashes\\',
            families=("ring",), sizes=(8,),
        )
        path = dump_scenario(sc, tmp_path / "s.toml")
        assert load_scenario(path) == sc

    @pytest.mark.parametrize(
        "doc, match",
        [
            ('families = ["ring"]\n', "invalid scenario document"),  # no name
            ('name = "x"\nsizes = 8\n', "must be a list"),  # scalar axis
            ('name = "x"\nfamilies = "ring"\n', "must be a list"),  # bare string
            ('name = "x"\nscenarios = 3\n', "must be a list of tables"),
        ],
    )
    def test_malformed_documents_are_friendly_errors(self, tmp_path, doc, match):
        path = tmp_path / "bad.toml"
        path.write_text(doc)
        with pytest.raises(AnalysisError, match=match):
            load_campaign(path)

    def test_toml_escapes_newlines_and_control_chars(self, tmp_path):
        sc = ScenarioSpec(
            name="multiline",
            description="line one\nline two\ttabbed\x01ctl",
            families=("ring",), sizes=(8,),
        )
        path = dump_scenario(sc, tmp_path / "s.toml")
        assert load_scenario(path) == sc


class TestRunnerAndReport:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_builtin_scenario_smoke(self, name):
        """Every built-in scenario runs end-to-end (shrunk) and reports."""
        sc = SCENARIOS[name].tiny()
        result = run_campaign(CampaignSpec(name=name, scenarios=(sc,)))
        (scenario_result,) = result.results
        assert len(scenario_result.records) == sc.num_cells
        for cell, record in zip(scenario_result.cells, scenario_result.records):
            assert record.fault == cell.fault
            assert record.churn == cell.churn
            assert record.outcome in ("ok", "stalled")
            if cell.fault == "none" and cell.churn == "none":
                assert record.ok  # the reliable model must never stall
        md = render_markdown(result)
        assert f"## Scenario `{name}`" in md
        payload = report_json_dict(result)
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_report_degree_respects_lower_bound(self):
        result = run_campaign(builtin_campaign(["dense_clique"]).tiny())
        payload = report_json_dict(result)
        for scenario in payload["scenarios"]:
            for row in scenario["aggregates"]:
                if row["k_final"] is not None:
                    assert row["k_final"] >= row["degree_lb"]

    def test_lower_bound_averages_only_completed_runs(self):
        """k* and LB means must cover the same instances, so the row
        never contradicts its own bound; an all-stalled group has no
        bound to report."""
        result = run_campaign(builtin_campaign(["lossy_links", "crash_storm"]))
        payload = report_json_dict(result)
        for scenario in payload["scenarios"]:
            for row in scenario["aggregates"]:
                if row["k_final"] is None:
                    assert row["degree_lb"] is None
                    assert row["fr_certified"] == 0
                else:
                    assert row["k_final"] >= row["degree_lb"]
                    assert row["fr_certified"] <= row["runs"] - row["stalled"]

    def test_report_reads_the_records_judgement(self):
        """LB(Δ*) is the mean of the completed runs' judged lb, and
        F-R cert. counts their unimprovable trees."""
        result = run_campaign(builtin_campaign(["paper_baseline"]).tiny())
        (scenario_result,) = result.results
        rows = aggregate_scenario(scenario_result)
        ok = [r for r in scenario_result.records if r.ok]
        assert sum(row["fr_certified"] for row in rows) == sum(
            not r.fr_improvable for r in ok
        )
        first = rows[0]
        axes = ("algorithm", "family", "n", "initial_method", "mode", "delay",
                "fault", "scheduler", "churn")
        lbs = [
            r.lb
            for c, r in zip(scenario_result.cells, scenario_result.records)
            if r.ok and all(getattr(c, a) == first[a] for a in axes)
        ]
        assert first["degree_lb"] == sum(lbs) / len(lbs)
        assert "| LB(Δ*) | F-R cert. |" in render_markdown(result)

    def test_write_report_artifacts(self, tmp_path):
        result = run_campaign(builtin_campaign(["lossy_links"]).tiny())
        md_path, json_path = write_report(result, tmp_path / "out")
        assert md_path.read_text().startswith("# Campaign report")
        payload = json.loads(json_path.read_text())
        assert payload["totals"]["cells"] == result.num_cells

    def test_shared_cells_across_scenarios_run_once(self, tmp_path):
        """Scenarios overlapping on cells must not pay twice: the batch
        is deduplicated before dispatch and records fan back out."""
        a = ScenarioSpec(name="a", families=("ring",), sizes=(8,), seeds=(0, 1))
        b = ScenarioSpec(
            name="b", families=("ring", "complete"), sizes=(8,), seeds=(0, 1)
        )
        camp = CampaignSpec(name="overlap", scenarios=(a, b))
        unique = set(a.cells()) | set(b.cells())
        cache = ResultCache(tmp_path / "cache")
        result = run_campaign(camp, cache=cache)
        assert cache.misses == len(unique) < camp.num_cells
        ra, rb = result.results
        shared = dict(zip(rb.cells, rb.records))
        for cell, record in zip(ra.cells, ra.records):
            assert shared[cell] == record  # same cell -> same record

    def test_stalled_runs_are_counted_not_averaged(self):
        result = run_campaign(builtin_campaign(["crash_storm"]).tiny())
        assert result.num_stalled > 0
        md = render_markdown(result)
        assert f"stalled {result.num_stalled}" in md

    def test_determinism_serial_parallel_warm_cache(self, tmp_path):
        """The acceptance bar: serial, --jobs 2 and a warm-cache replay
        produce byte-identical markdown and JSON reports."""
        camp = builtin_campaign(["lossy_links", "crash_storm"]).tiny()
        serial = run_campaign(camp)
        parallel = run_campaign(camp, jobs=2)
        cache = ResultCache(tmp_path / "cache")
        cold = run_campaign(camp, cache=cache)
        warm = run_campaign(camp, cache=cache)
        # the replay was served from disk (one lookup per *unique* cell —
        # cells shared across scenarios are deduplicated before dispatch)
        unique = {cell for sc in camp.scenarios for cell in sc.cells()}
        assert cache.hits >= len(unique)
        reference_md = render_markdown(serial)
        reference_json = json.dumps(report_json_dict(serial), sort_keys=True)
        for other in (parallel, cold, warm):
            assert render_markdown(other) == reference_md
            assert json.dumps(report_json_dict(other), sort_keys=True) == reference_json
