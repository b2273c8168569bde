"""The coverage-guided schedule fuzzer (:mod:`repro.exploration.fuzz`):
coverage map, mutation engine, campaign determinism, the planted-bug
self-test, the replay corpus, and the ``repro fuzz`` CLI."""

import hashlib
import json
from pathlib import Path

import pytest

from repro._mutation import mutated
from repro.analysis.executor import ParallelExecutor, SerialExecutor
from repro.cli import main
from repro.errors import AnalysisError
from repro.exploration import (
    MUTATION_OPS,
    CoverageMap,
    ExplorationCell,
    FuzzSpec,
    artifact_bytes,
    corpus_paths,
    explore,
    explore_one,
    load_artifact,
    load_corpus_cells,
    mutate_cell,
    probe_cell,
    result_signature,
    run_fuzz,
)
from repro.rng import substream
from repro.sim.scheduler import is_replay_spec, parse_replay_spec

FUZZ_CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"

#: Small deterministic campaign used across the determinism tests.
TINY = FuzzSpec(
    sizes=(6,), seeds=(0, 1), fallbacks=("random",),
    churns=("none", "restart_one"), budget=16, batch=8, seed=0,
)


class TestCoverageMap:
    def test_admits_only_new_buckets(self):
        cov = CoverageMap()
        assert cov.admit(("a", 1))
        assert not cov.admit(("a", 1))
        assert cov.admit(("b", 2))
        assert len(cov) == 2

    def test_digest_is_order_independent(self):
        a, b = CoverageMap(), CoverageMap()
        a.admit(("x",)), a.admit(("y",))
        b.admit(("y",)), b.admit(("x",))
        assert a.digest() == b.digest()
        b.admit(("z",))
        assert a.digest() != b.digest()

    def test_result_signature_excludes_the_search_coordinates(self):
        """Seed and prefix are the search space, not the behaviour: two
        cells differing only there must land in the same bucket when
        their probes behave identically."""
        base = ExplorationCell(
            family="gnp_sparse", n=6, seed=0, scheduler="replay:lifo",
            initial_method="random",
        )
        twin = base.with_(scheduler="replay:lifo:9.9")
        ra, rb = explore([base, twin])
        if tuple(r.outcome for r in ra.records) == tuple(
            r.outcome for r in rb.records
        ):
            sig_a, sig_b = result_signature(ra), result_signature(rb)
            assert sig_a[:3] == sig_b[:3]  # family, n, fallback


class TestMutationEngine:
    def test_every_operator_is_described(self):
        assert set(MUTATION_OPS) == {
            "extend", "perturb", "truncate", "splice",
            "reseed", "rechurn", "refallback",
        }
        assert all(MUTATION_OPS.values())

    def test_non_replay_bases_are_lifted_to_replay_cells(self):
        spec = FuzzSpec()
        rng = substream(0, "test:mutate")
        pool = [
            ExplorationCell(
                family="gnp_sparse", n=6, seed=0, scheduler="lifo",
                initial_method="random",
            )
        ]
        for _ in range(16):
            cell = mutate_cell(rng, pool, spec)
            assert is_replay_spec(cell.scheduler)
            _prefix, fallback = parse_replay_spec(cell.scheduler)
            assert fallback in spec.fallbacks

    def test_mutation_stream_is_deterministic(self):
        spec = FuzzSpec()
        pool = list(spec.seed_cells())[:4]

        def stream(seed):
            rng = substream(seed, "fuzz:mutate")
            return [mutate_cell(rng, pool, spec).canonical() for _ in range(24)]

        assert stream(0) == stream(0)
        assert stream(0) != stream(1)


class TestFuzzSpec:
    def test_seed_cells_cover_the_grid_with_empty_prefixes(self):
        cells = TINY.seed_cells()
        assert len(cells) == 1 * 2 * 1 * 2  # sizes x churns x fallbacks x seeds
        assert all(is_replay_spec(c.scheduler) for c in cells)
        assert all(parse_replay_spec(c.scheduler)[0] == () for c in cells)
        assert {c.churn for c in cells} == {"none", "restart_one"}

    def test_validation_is_eager_and_loud(self):
        with pytest.raises(AnalysisError, match="budget"):
            FuzzSpec(budget=0)
        with pytest.raises(AnalysisError, match="max_prefix"):
            FuzzSpec(max_prefix=0)
        with pytest.raises(AnalysisError, match="non-empty"):
            FuzzSpec(churns=())
        with pytest.raises(AnalysisError, match="churn"):
            FuzzSpec(churns=("nope",))
        with pytest.raises(AnalysisError, match="fallback"):
            FuzzSpec(fallbacks=("none",))
        with pytest.raises(AnalysisError, match="fallback"):
            FuzzSpec(fallbacks=("replay:lifo:1",))
        with pytest.raises(AnalysisError, match="unknown scheduler"):
            FuzzSpec(fallbacks=("nope",))


class TestCampaignDeterminism:
    def test_same_spec_same_report(self):
        a = run_fuzz(TINY)
        b = run_fuzz(TINY)
        assert a.corpus_digest == b.corpus_digest
        assert a.coverage_digest == b.coverage_digest
        assert a.probed == b.probed and a.rounds == b.rounds
        assert [c.canonical() for c in a.corpus] == [
            c.canonical() for c in b.corpus
        ]

    def test_serial_and_parallel_verdicts_are_byte_identical(self):
        serial = run_fuzz(TINY)
        parallel = run_fuzz(TINY, jobs=2)
        assert serial.corpus_digest == parallel.corpus_digest
        assert serial.coverage_digest == parallel.coverage_digest
        assert [artifact_bytes(r.verdict) for r in serial.failures] == [
            artifact_bytes(r.verdict) for r in parallel.failures
        ]

    def test_warm_cache_replays_identically(self, tmp_path):
        cold = run_fuzz(TINY, cache=tmp_path)
        warm = run_fuzz(TINY, cache=tmp_path)
        assert cold.corpus_digest == warm.corpus_digest
        assert cold.coverage_digest == warm.coverage_digest

    def test_different_fuzz_seed_diverges(self):
        """The mutation seed must matter — otherwise the fuzzer is a
        fixed grid with extra steps. Round zero is shared; the mutated
        rounds diverge and so does the admitted corpus."""
        import dataclasses

        a = run_fuzz(TINY)
        b = run_fuzz(dataclasses.replace(TINY, seed=7))
        assert a.probed == b.probed
        assert a.corpus_digest != b.corpus_digest


class _ProbeLog:
    """Serial probe backend that keeps every record it serves."""

    def __init__(self):
        self.inner = SerialExecutor(probe_cell)
        self.records = []

    def run(self, cells):
        records = self.inner.run(cells)
        self.records.extend(records)
        return records


class TestProbeRecordPin:
    """The probe records of one small policy + churn campaign, pinned
    byte for byte: replay schedules with random and lifo fallbacks, all
    three churn plans, completed and stalled probes. The determinism
    tests above only compare runs with each other, so an engine change
    that moved every probe record alike would pass them."""

    def test_campaign_probe_records_are_pinned(self):
        log = _ProbeLog()
        report = run_fuzz(
            FuzzSpec(seed=11, seeds=(0, 1), budget=48), executor=log, max_shrink=0
        )
        payload = json.dumps([r.to_json_dict() for r in log.records], sort_keys=True)
        assert len(log.records) == 96
        assert sum(r.outcome == "stalled" for r in log.records) == 22
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == (
            "47e829dc6b9cc4c6778fed6b7b242918a5e2281d12da3a791166c8bc7e087626"
        )
        assert report.coverage == 33
        assert report.coverage_digest == (
            "6aa35ffe331aa258fb3818da6c29ec701e3736832371fe300eafbb513fca0fa0"
        )
        assert report.corpus_digest == (
            "b548a6226ed40be687c9441010c47531119a14f2d5a5d0238a0011243fa80e6e"
        )


class TestPlantedBugSelfTest:
    """The fuzz PR's acceptance criterion: the churn-rejoin amnesia bug
    behind ``drop_churn_rejoin`` is found AND shrunk within a small
    budget, and the healthy protocol stays clean under the same spec."""

    def test_healthy_campaign_is_clean(self):
        report = run_fuzz(FuzzSpec(budget=32, batch=8))
        assert report.ok and not report.failures
        assert report.coverage > 0 and report.corpus

    def test_injected_bug_is_found_and_shrunk(self):
        with mutated("drop_churn_rejoin"):
            report = run_fuzz(FuzzSpec(budget=48, batch=8))
            assert not report.ok, "the fuzzer must find the planted bug"
            assert report.shrunk
            outcome = report.shrunk[0]
            assert not outcome.result.ok
            assert any(
                f.startswith("run_failed:")
                for f in outcome.result.verdict.failures
            )
            # the bug needs churn: shrinking never strips the plan
            assert outcome.cell.churn != "none"
            assert outcome.cell.n <= outcome.original.n
        # and the shrunk cell passes again once the mutation is off
        assert explore_one(outcome.cell).ok

    def test_failures_reproduce_under_the_same_mutation(self):
        with mutated("drop_churn_rejoin"):
            report = run_fuzz(FuzzSpec(budget=48, batch=8))
            again = run_fuzz(FuzzSpec(budget=48, batch=8))
        assert [r.cell.canonical() for r in report.failures] == [
            r.cell.canonical() for r in again.failures
        ]


class TestFuzzCorpus:
    """Replay-prefix artifacts under ``tests/fuzz_corpus``: every stored
    verdict must replay byte-identically (serial and ``--jobs 2``), and
    every artifact must flip under the planted churn mutation —
    otherwise it pins nothing. New artifact files join automatically."""

    def test_corpus_is_seeded_with_replay_prefix_cells(self):
        paths = corpus_paths(FUZZ_CORPUS_DIR)
        assert len(paths) >= 2, "fuzz corpus must hold at least 2 artifacts"
        cells = [load_artifact(p)[0] for p in paths]
        assert all(is_replay_spec(c.scheduler) for c in cells)
        assert all(c.churn != "none" for c in cells)
        # at least one artifact's prefix is load-bearing (non-empty)
        assert any(parse_replay_spec(c.scheduler)[0] for c in cells)

    def test_load_corpus_cells_orders_deterministically(self):
        cells = load_corpus_cells(FUZZ_CORPUS_DIR)
        assert len(cells) == len(corpus_paths(FUZZ_CORPUS_DIR))
        assert cells == load_corpus_cells(FUZZ_CORPUS_DIR)

    @pytest.mark.parametrize(
        "path", corpus_paths(FUZZ_CORPUS_DIR), ids=lambda p: p.stem
    )
    def test_replay_is_byte_identical_serial_and_parallel(self, path):
        cell, stored, _note = load_artifact(path)
        serial = explore([cell], executor=SerialExecutor(probe_cell))[0]
        parallel = explore([cell], executor=ParallelExecutor(2, probe_cell))[0]
        assert artifact_bytes(serial.verdict) == artifact_bytes(stored)
        assert artifact_bytes(parallel.verdict) == artifact_bytes(stored)

    @pytest.mark.parametrize(
        "path", corpus_paths(FUZZ_CORPUS_DIR), ids=lambda p: p.stem
    )
    def test_corpus_artifacts_are_regression_sensitive(self, path):
        cell, stored, _note = load_artifact(path)
        assert stored.ok
        with mutated("drop_churn_rejoin"):
            assert not explore_one(cell).ok

    def test_campaign_seeds_from_the_corpus(self):
        spec = FuzzSpec(
            sizes=(6,), seeds=(0,), fallbacks=("lifo",),
            churns=("restart_one",), budget=8, batch=8,
        )
        seeded = run_fuzz(spec, seed_corpus=load_corpus_cells(FUZZ_CORPUS_DIR))
        assert seeded.ok
        probed_keys = {c.canonical() for c in seeded.corpus}
        # the corpus cells were actually probed (they are healthy and
        # behaviourally distinct, so at least one lands in coverage)
        assert any(
            cell.canonical() in probed_keys
            for cell in load_corpus_cells(FUZZ_CORPUS_DIR)
        )


class TestFuzzCLI:
    def test_list_prints_operators_plans_and_defaults(self, capsys):
        rc = main(["fuzz", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mutation operators:" in out
        for op in MUTATION_OPS:
            assert op in out
        assert "churn plans:" in out and "restart_one" in out
        assert "fallback policies:" in out and "lifo" in out
        assert "defaults:" in out and "budget=" in out

    def test_healthy_run_is_clean(self, capsys, tmp_path):
        rc = main([
            "fuzz", "--budget", "16", "--batch", "8", "--sizes", "6",
            "--seeds", "0", "1", "--fallbacks", "random",
            "--churns", "none", "restart_one",
            "--out", str(tmp_path / "cex"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 failure(s)" in out
        assert "coverage digest:" in out
        assert not (tmp_path / "cex").exists()

    def test_mutated_run_finds_shrinks_and_saves(self, capsys, tmp_path):
        out_dir = tmp_path / "cex"
        with mutated("drop_churn_rejoin"):
            rc = main([
                "fuzz", "--budget", "48", "--batch", "8",
                "--out", str(out_dir),
            ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "counterexample:" in out and "shrunk" in out
        artifacts = corpus_paths(out_dir)
        assert artifacts
        for path in artifacts:
            _cell, verdict, note = load_artifact(path)
            assert not verdict.ok
            assert "repro fuzz" in note

    def test_corpus_seeding_via_flag(self, capsys, tmp_path):
        rc = main([
            "fuzz", "--budget", "8", "--batch", "8", "--sizes", "6",
            "--seeds", "0", "--fallbacks", "lifo", "--churns", "restart_one",
            "--corpus", str(FUZZ_CORPUS_DIR),
            "--out", str(tmp_path / "cex"),
        ])
        assert rc == 0
        assert "coverage digest:" in capsys.readouterr().out
