"""The adversarial schedule-exploration harness (`repro.exploration`):
probe, oracle, explorer, shrinker, artifacts, corpus replay, the
mutation self-test, and the ``repro explore`` CLI."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro._mutation import KNOWN_MUTATIONS, mutated, mutation_active
from repro.analysis.cache import ResultCache
from repro.analysis.executor import ParallelExecutor, RunSpec, SerialExecutor
from repro.cli import main
from repro.errors import AnalysisError
from repro.exploration import (
    DEFAULT_ALGORITHMS,
    ExplorationCell,
    Verdict,
    artifact_bytes,
    check_cell,
    corpus_paths,
    explore,
    explore_one,
    exploration_grid,
    load_artifact,
    probe_cell,
    replay_artifact,
    shrink,
    tiny_grid,
    write_artifact,
)

CORPUS_DIR = Path(__file__).parent / "exploration_corpus"


class TestCells:
    def test_run_specs_share_instance_and_schedule(self):
        cell = ExplorationCell(family="ring", n=8, seed=3, scheduler="lifo")
        specs = cell.run_specs()
        assert [s.algorithm for s in specs] == list(DEFAULT_ALGORITHMS)
        assert {(s.family, s.n, s.seed, s.scheduler) for s in specs} == {
            ("ring", 8, 3, "lifo")
        }

    def test_json_round_trip(self):
        cell = ExplorationCell(family="gnp_sparse", n=6, seed=1, scheduler="random")
        assert ExplorationCell.from_json_dict(cell.to_json_dict()) == cell

    def test_invalid_cells_raise(self):
        with pytest.raises(AnalysisError):
            ExplorationCell(family="ring", n=0, seed=0)
        with pytest.raises(AnalysisError):
            ExplorationCell(family="ring", n=4, seed=0, algorithms=())
        with pytest.raises(AnalysisError):
            ExplorationCell.from_json_dict({"family": "ring"})

    def test_grid_validates_axes_eagerly(self):
        with pytest.raises(AnalysisError, match="scheduler"):
            exploration_grid(schedulers=("typo",))
        with pytest.raises(AnalysisError, match="family"):
            exploration_grid(families=("typo",))
        with pytest.raises(AnalysisError, match="algorithm"):
            exploration_grid(algorithms=("typo",))

    def test_grid_crosses_delays_only_with_time_scheduling(self):
        grid = exploration_grid(
            sizes=(6,),
            seeds=(0,),
            schedulers=("none", "lifo"),
            delays=("unit", "exponential"),
        )
        by_sched = {}
        for cell in grid:
            by_sched.setdefault(cell.scheduler, []).append(cell.delay)
        assert sorted(by_sched["none"]) == ["exponential", "unit"]
        assert by_sched["lifo"] == ["unit"]  # policies bypass delays

    def test_grid_is_stable_and_deterministic(self):
        assert exploration_grid() == exploration_grid()
        assert tiny_grid() == tiny_grid()


class TestProbe:
    def test_probe_matches_plain_run_when_healthy(self):
        spec = ExplorationCell(family="gnp_sparse", n=8, seed=0).run_specs()[0]
        from dataclasses import replace

        from repro.analysis.executor import execute_cell

        probed = probe_cell(spec)
        # probes additionally capture the causal provenance digest; the
        # run itself (every other field) is identical to a plain run
        assert probed.causal["messages"] == probed.messages
        assert probed.causal["crit_len"] == probed.causal_time
        assert replace(probed, causal={}) == execute_cell(spec)

    def test_probe_captures_protocol_errors_as_records(self):
        spec = ExplorationCell(
            family="gnp_sparse", n=6, seed=4, scheduler="lifo",
            delay="exponential",
        ).run_specs()[0]
        assert spec.algorithm == "blin_butelle"
        with mutated("skip_cutter_gate"):
            record = probe_cell(spec)
        assert record.outcome == "error"
        assert "ProtocolError" in record.extra["error"]
        assert record.scheduler == "lifo"
        assert record.k_final == record.k_initial and record.messages == 0
        # both algorithms go through the shared cutter gate
        fr_spec = ExplorationCell(
            family="wheel", n=6, seed=2, scheduler="lifo",
            delay="exponential",
        ).run_specs()[1]
        assert fr_spec.algorithm == "fr_local"
        with mutated("skip_cutter_gate"):
            fr_record = probe_cell(fr_spec)
        assert fr_record.outcome == "error"
        assert "ProtocolError" in fr_record.extra["error"]

    def test_probe_survives_setup_failures(self):
        """A cell whose failure originates before the protocol even runs
        (e.g. a hand-edited artifact with a bogus initial method) must
        still come back as an error record, not kill the worker pool."""
        spec = RunSpec(family="gnp_sparse", n=6, seed=0, initial_method="typo")
        record = probe_cell(spec)
        assert record.outcome == "error"
        assert record.n == 6 and record.m == 0 and record.messages == 0


class TestOracle:
    def _records(self, cell):
        return [probe_cell(s) for s in cell.run_specs()]

    def test_healthy_cell_passes(self):
        cell = ExplorationCell(family="gnp_sparse", n=8, seed=0, scheduler="lifo")
        verdict = check_cell(cell, self._records(cell))
        assert verdict.ok and not verdict.failures

    def test_failed_run_fails_the_cell(self):
        cell = ExplorationCell(
            family="gnp_sparse", n=6, seed=4, scheduler="lifo",
            delay="exponential",
        )
        with mutated("skip_cutter_gate"):
            verdict = check_cell(cell, self._records(cell))
        assert not verdict.ok
        assert "run_failed:blin_butelle" in verdict.failures

    def test_degree_bound_violation_is_flagged(self):
        cell = ExplorationCell(family="gnp_sparse", n=8, seed=0)
        records = self._records(cell)
        bad = dataclasses.replace(
            records[0], k_final=records[0].n - 1, k_initial=records[0].n - 1
        )
        verdict = check_cell(cell, [bad, records[1]])
        assert any(f.startswith("degree_bound:") for f in verdict.failures)

    def test_disagreement_is_flagged(self):
        # push the cell out of exact reach so only the differential
        # cross-check can see the divergence
        cell = ExplorationCell(family="gnp_sparse", n=8, seed=0)
        records = self._records(cell)
        bad = dataclasses.replace(
            records[0],
            k_initial=records[0].k_initial + 5,
            k_final=records[0].k_final + 5,
        )
        verdict = check_cell(cell, [bad, records[1]], exact_limit=4)
        assert "disagreement" in verdict.failures

    def test_record_cell_mismatch_raises(self):
        cell = ExplorationCell(family="gnp_sparse", n=8, seed=0)
        records = self._records(cell)
        with pytest.raises(AnalysisError, match="mismatch"):
            check_cell(cell, list(reversed(records)))
        with pytest.raises(AnalysisError, match="records"):
            check_cell(cell, records[:1])

    def test_verdict_json_round_trip(self):
        v = Verdict(ok=False, failures=("x",), details=("why",))
        assert Verdict.from_json_dict(v.to_json_dict()) == v
        with pytest.raises(AnalysisError):
            Verdict.from_json_dict({"ok": True})


class TestExplorer:
    def test_serial_and_parallel_verdicts_are_identical(self):
        cells = exploration_grid(
            sizes=(6,), seeds=(0, 1), schedulers=("lifo", "random")
        )
        serial = explore(cells, executor=SerialExecutor(probe_cell))
        parallel = explore(cells, executor=ParallelExecutor(2, probe_cell))
        assert [r.verdict for r in serial] == [r.verdict for r in parallel]
        assert [r.records for r in serial] == [r.records for r in parallel]

    def test_cache_round_trip_serves_probe_records(self, tmp_path):
        cells = exploration_grid(sizes=(6,), seeds=(0,), schedulers=("lifo",))
        cold = explore(cells, cache=tmp_path)
        warm = explore(cells, cache=tmp_path)
        assert [r.verdict for r in cold] == [r.verdict for r in warm]
        # and the salted entries are invisible to a plain cache
        plain = ResultCache(tmp_path)
        assert plain.get(cells[0].run_specs()[0]) is None

    def test_unsalted_cache_instance_is_reopened_salted(self, tmp_path):
        """Passing a plain ResultCache object must not bypass the probe
        salt (the str/Path form is salted automatically)."""
        cells = (
            ExplorationCell(
                family="gnp_sparse", n=6, seed=4, scheduler="lifo",
                delay="exponential",
            ),
        )
        with mutated("skip_cutter_gate"):
            bad = explore(cells, cache=ResultCache(tmp_path))
        assert not bad[0].ok
        assert ResultCache(tmp_path).get(cells[0].run_specs()[0]) is None

    def test_mutated_probe_records_never_poison_the_plain_cache(self, tmp_path):
        """Worst case for cache hygiene: an error record written by a
        mutated probe run must not be served to a later plain sweep of
        the same spec."""
        cells = (
            ExplorationCell(
                family="gnp_sparse", n=6, seed=4, scheduler="lifo",
                delay="exponential",
            ),
        )
        with mutated("skip_cutter_gate"):
            bad = explore(cells, cache=tmp_path)
        assert not bad[0].ok
        from repro.analysis.harness import SweepSpec, run_sweep

        records = run_sweep(
            SweepSpec(
                families=("gnp_sparse",), sizes=(6,), seeds=(4,),
                initial_methods=("random",), delays=("exponential",),
                schedulers=("lifo",),
            ),
            cache=ResultCache(tmp_path),
        )
        assert all(r.ok for r in records)


class TestMutationSelfTest:
    """The harness must prove it can catch a real bug: inject the PR 1
    cutter cross-reply race behind the ``skip_cutter_gate`` flag and
    assert ``repro explore --tiny`` finds AND shrinks it."""

    def test_flag_wiring(self):
        assert "skip_cutter_gate" in KNOWN_MUTATIONS
        assert not mutation_active("skip_cutter_gate")
        with mutated("skip_cutter_gate"):
            assert mutation_active("skip_cutter_gate")
        assert not mutation_active("skip_cutter_gate")
        with pytest.raises(ValueError):
            with mutated("not_a_mutation"):
                pass  # pragma: no cover

    def test_env_parsing_strips_and_rejects_typos(self):
        """A typo'd REPRO_MUTATIONS must fail loudly — silently
        activating nothing would make a buggy protocol look healthy."""
        from repro._mutation import _parse_env

        assert _parse_env("") == set()
        assert _parse_env(" skip_cutter_gate ,") == {"skip_cutter_gate"}
        with pytest.raises(ValueError, match="skip_cutter_gat"):
            _parse_env("skip_cutter_gat")

    def test_healthy_tiny_grid_is_clean(self):
        assert all(r.ok for r in explore(tiny_grid()))

    def test_injected_bug_is_found_and_shrunk(self):
        with mutated("skip_cutter_gate"):
            failures = [r for r in explore(tiny_grid()) if not r.ok]
            assert failures, "tiny grid must expose the injected race"
            outcome = shrink(failures[0].cell)
        assert not outcome.result.ok
        assert any(
            f.startswith("run_failed:") for f in outcome.result.verdict.failures
        )
        # minimality along each coordinate: shrunk values never exceed
        # the original ones
        assert outcome.cell.n <= failures[0].cell.n
        assert outcome.cell.seed <= failures[0].cell.seed
        # and the shrunk cell passes again once the mutation is off
        assert explore_one(outcome.cell).ok

    def test_shrink_is_deterministic(self):
        with mutated("skip_cutter_gate"):
            failures = [r for r in explore(tiny_grid()) if not r.ok]
            a = shrink(failures[0].cell)
            b = shrink(failures[0].cell)
        assert a.cell == b.cell and a.probes == b.probes

    def test_shrink_skips_sizes_the_family_cannot_build(self):
        """A wheel needs n >= 4: the upward n scan must skip n=3 instead
        of letting the oracle's GraphError escape."""
        cell = ExplorationCell(
            family="wheel", n=6, seed=2, scheduler="lifo",
            delay="exponential",
        )
        with mutated("skip_cutter_gate"):
            outcome = shrink(cell)
        assert not outcome.result.ok
        assert 4 <= outcome.cell.n <= cell.n
        assert "run_failed:fr_local" in outcome.result.verdict.failures

    def test_shrink_rejects_passing_cells(self):
        with pytest.raises(AnalysisError, match="passing"):
            shrink(ExplorationCell(family="gnp_sparse", n=8, seed=0))


class TestArtifacts:
    def test_write_load_replay(self, tmp_path):
        result = explore_one(
            ExplorationCell(family="gnp_sparse", n=6, seed=0, scheduler="lifo")
        )
        path = write_artifact(tmp_path, result, note="smoke")
        cell, verdict, note = load_artifact(path)
        assert cell == result.cell and verdict == result.verdict
        assert note == "smoke"
        fresh, stored = replay_artifact(path)
        assert fresh == stored
        # idempotent: same cell -> same file name
        assert write_artifact(tmp_path, result) == path

    def test_load_rejects_bad_documents(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json", encoding="utf-8")
        with pytest.raises(AnalysisError, match="unreadable"):
            load_artifact(bad)
        bad.write_text(json.dumps({"schema": 99}), encoding="utf-8")
        with pytest.raises(AnalysisError, match="schema"):
            load_artifact(bad)
        with pytest.raises(AnalysisError, match="unreadable"):
            load_artifact(tmp_path / "missing.json")

    def test_corpus_paths_empty_for_missing_dir(self, tmp_path):
        assert corpus_paths(tmp_path / "nope") == ()


class TestRegressionCorpus:
    """Every stored artifact must replay deterministically: byte-identical
    verdicts under serial and ``--jobs 2`` execution (acceptance
    criterion of the exploration PR)."""

    def test_corpus_is_seeded_with_the_cutter_race(self):
        paths = corpus_paths(CORPUS_DIR)
        assert paths, "regression corpus must not be empty"
        notes = " ".join(load_artifact(p)[2] for p in paths)
        assert "cutter cross-reply race" in notes

    @pytest.mark.parametrize(
        "path", corpus_paths(CORPUS_DIR), ids=lambda p: p.stem
    )
    def test_replay_is_byte_identical_serial_and_parallel(self, path):
        cell, stored, _note = load_artifact(path)
        serial = explore([cell], executor=SerialExecutor(probe_cell))[0]
        parallel = explore([cell], executor=ParallelExecutor(2, probe_cell))[0]
        assert artifact_bytes(serial.verdict) == artifact_bytes(stored)
        assert artifact_bytes(parallel.verdict) == artifact_bytes(stored)

    @pytest.mark.parametrize(
        "path", corpus_paths(CORPUS_DIR), ids=lambda p: p.stem
    )
    def test_corpus_artifacts_are_regression_sensitive(self, path):
        """Re-opening the recorded bug must flip the verdict — otherwise
        the artifact pins nothing."""
        cell, stored, _note = load_artifact(path)
        assert stored.ok
        with mutated("skip_cutter_gate"):
            assert not explore_one(cell).ok


class TestExploreCLI:
    def test_tiny_healthy_run_is_clean(self, capsys, tmp_path):
        rc = main(["explore", "--tiny", "--out", str(tmp_path / "cex")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 counterexample(s)" in out
        assert not (tmp_path / "cex").exists()

    def test_tiny_mutated_run_finds_shrinks_and_saves(self, capsys, tmp_path):
        out_dir = tmp_path / "cex"
        with mutated("skip_cutter_gate"):
            rc = main(["explore", "--tiny", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "counterexample:" in out and "shrunk" in out
        artifacts = corpus_paths(out_dir)
        assert artifacts
        for path in artifacts:
            _cell, verdict, note = load_artifact(path)
            assert not verdict.ok
            assert "repro explore" in note

    def test_custom_grid_axes(self, capsys, tmp_path):
        rc = main(
            [
                "explore", "--families", "ring", "--sizes", "6",
                "--seeds", "0", "1", "--schedulers", "lifo",
                "--jobs", "2", "--cache", str(tmp_path / "cache"),
                "--out", str(tmp_path / "cex"),
            ]
        )
        assert rc == 0
        assert "explored 2 cells (4 probe runs)" in capsys.readouterr().out

    def test_spec_runspec_scheduler_default(self):
        # the satellite fix: RunSpec carries the scheduler axis end-to-end
        assert RunSpec(family="ring", n=6, seed=0).scheduler == "none"
