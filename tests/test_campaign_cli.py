"""CLI surface of the scenario engine: ``repro campaign`` (golden
``--list`` output, end-to-end runs, file mode), the extended
``families`` listing, ``--fault`` on run/compare, and eager family
validation."""

import json

import pytest

from repro.cli import main
from repro.scenarios import SCENARIOS, dump_campaign, dump_scenario

#: golden output — update deliberately when the library changes
CAMPAIGN_LIST_GOLDEN = """\
built-in scenarios:

  adversarial_delay    18 cells  per-link skew and exponential delays vs. the unit-delay model
  churn_storm          24 cells  mid-run churn plans (crash-restart waves, link flaps) vs. the churn-free baseline
  crash_storm          18 cells  crash-stop fault plans vs. the fault-free baseline
  dense_clique         12 cells  dense regime: complete + dense G(n,p) (KMZ lower-bound setting)
  head_to_head         24 cells  every registered algorithm head-to-head on identical instances
  lossy_links           9 cells  message-drop fault plans (5% / 25%) vs. the fault-free baseline
  paper_baseline       18 cells  the paper's regime: sparse G(n,p) + geometric graphs, unit delays
  scale_free            9 cells  hub-heavy preferential-attachment topologies
  schedule_storm       24 cells  adversarial scheduler policies vs. time-based delivery
  wireless_geometric    9 cells  radio networks: geometric graphs under uniform random delays

run with: python -m repro campaign <name> [--jobs N] [--cache DIR] [--out DIR]
"""


class TestCampaignCommand:
    def test_list_golden_output(self, capsys):
        assert main(["campaign", "--list"]) == 0
        assert capsys.readouterr().out == CAMPAIGN_LIST_GOLDEN

    def test_run_builtin_tiny_with_out_cache_jobs(self, capsys, tmp_path):
        rc = main(
            [
                "campaign", "lossy_links", "--tiny",
                "--jobs", "2",
                "--cache", str(tmp_path / "cache"),
                "--out", str(tmp_path / "report"),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "# Campaign report — `lossy_links`" in captured.out
        assert "cache:" in captured.err
        md = (tmp_path / "report" / "report.md").read_text()
        assert md in captured.out  # stdout shows exactly the artifact
        payload = json.loads((tmp_path / "report" / "report.json").read_text())
        assert payload["campaign"]["name"] == "lossy_links"

    def test_warm_cache_replay_is_identical(self, capsys, tmp_path):
        argv = [
            "campaign", "crash_storm", "--tiny",
            "--cache", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_file_mode_toml_and_json(self, capsys, tmp_path):
        camp = SCENARIOS["adversarial_delay"].tiny()
        for suffix in (".toml", ".json"):
            path = tmp_path / f"doc{suffix}"
            dump_scenario(camp, path)
            assert main(["campaign", "--file", str(path)]) == 0
            out = capsys.readouterr().out
            assert "## Scenario `adversarial_delay`" in out

    def test_multi_scenario_campaign(self, capsys, tmp_path):
        from repro.scenarios import builtin_campaign

        path = tmp_path / "multi.toml"
        dump_campaign(builtin_campaign(["lossy_links", "scale_free"]).tiny(), path)
        assert main(["campaign", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "## Scenario `lossy_links`" in out
        assert "## Scenario `scale_free`" in out

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        assert main(["campaign"]) == 2
        assert "scenario name" in capsys.readouterr().err
        path = tmp_path / "c.toml"
        dump_scenario(SCENARIOS["lossy_links"], path)
        assert main(["campaign", "lossy_links", "--file", str(path)]) == 2

    def test_unknown_scenario_name_is_a_friendly_error(self, capsys):
        assert main(["campaign", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'nope'" in err
        assert "paper_baseline" in err  # valid choices are named

    def test_missing_file_is_a_friendly_error(self, capsys, tmp_path):
        assert main(["campaign", "--file", str(tmp_path / "gone.toml")]) == 2
        assert "no such scenario file" in capsys.readouterr().err


class TestFamiliesListing:
    def test_lists_every_axis_registry(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        for section in (
            "graph families:", "delay models:", "algorithms:",
            "fault plans:", "churn plans:", "scenarios:", "bench suites:",
        ):
            assert section in out
        for name in (
            "complete", "unit", "blin_butelle", "crash_storm", "restart_one",
            "paper_baseline", "smoke",
        ):
            assert f"  {name}\n" in out


class TestFaultFlag:
    def test_run_stalls_loudly_with_nonzero_exit(self, capsys):
        rc = main(
            ["run", "--family", "gnp_sparse", "--n", "16", "--fault", "lossy_heavy"]
        )
        assert rc == 1
        assert "stalled under fault plan 'lossy_heavy'" in capsys.readouterr().err

    def test_run_fault_none_is_default_path(self, capsys):
        assert main(["run", "--family", "ring", "--n", "8"]) == 0
        assert "degree:" in capsys.readouterr().out

    def test_compare_tabulates_stalls(self, capsys):
        rc = main(
            [
                "compare", "--family", "gnp_sparse", "--n", "12",
                "--fault", "crash_storm",
            ]
        )
        assert rc == 0
        assert "stalled" in capsys.readouterr().out

    def test_sweep_fault_axis(self, capsys):
        rc = main(
            [
                "sweep", "--families", "ring", "--sizes", "8", "--seeds", "0",
                "--fault", "none", "crash_one",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault" in out and "crash_one" in out


class TestEagerFamilyValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--family", "typo"],
            ["exact", "--family", "typo"],
            ["compare", "--family", "typo"],
            ["sweep", "--families", "gnp_sparse", "typo"],
        ],
    )
    def test_bad_family_fails_at_the_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'typo'" in err
        assert "gnp_sparse" in err  # valid choices are named
