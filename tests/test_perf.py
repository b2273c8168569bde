"""The perf subsystem: stats determinism, baseline round-trips,
compare/gate verdicts, suite-runner determinism, and the
``slow_event_loop`` mutation self-test."""

import gc
import json
from pathlib import Path

import pytest

from repro._mutation import mutated
from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.harness import SweepSpec
from repro.errors import AnalysisError, UnknownNameError
from repro.perf import (
    BASELINE_SCHEMA,
    BENCHES,
    Baseline,
    BenchResult,
    BenchSpec,
    aggregate_work,
    cells_kernel,
    compare_baselines,
    compare_pairs,
    iqr,
    latest_baseline_path,
    load_baseline,
    machine_fingerprint,
    median,
    paired_verdict,
    quantile,
    run_suite,
    save_baseline,
    suite_benches,
    time_callable,
    work_bytes,
)
from repro.perf.timing import TimingSample


class TestStats:
    def test_median_and_quantiles(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
        assert quantile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
        assert quantile([5.0], 0.75) == 5.0

    def test_iqr(self):
        assert iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(2.0)
        assert iqr([7.0]) == 0.0

    def test_quantile_validation(self):
        with pytest.raises(AnalysisError):
            quantile([], 0.5)
        with pytest.raises(AnalysisError):
            quantile([1.0], 1.5)


#: ten paired timings of a reference side: median 1.0, quartile spread 0.15
_REF = [0.8, 0.9, 0.9, 1.0, 1.0, 1.0, 1.0, 1.1, 1.1, 1.2]


class TestPairedVerdict:
    def test_ten_of_ten_slower_beyond_the_spread_is_slower(self):
        v = paired_verdict(_REF, [t * 1.3 for t in _REF])
        assert (v.a_wins, v.b_wins, v.pairs) == (10, 0, 10)
        assert v.spread == pytest.approx(0.15)
        assert v.ratio == pytest.approx(1.3)
        assert v.verdict == "slower"
        # the mirror image: the other side is faster
        assert paired_verdict([t * 1.3 for t in _REF], _REF).verdict == "faster"

    def test_nine_of_ten_is_enough_and_eight_is_not(self):
        slow = [t * 1.3 for t in _REF]
        nine = [*slow[:9], _REF[9] * 0.5]
        assert paired_verdict(_REF, nine).verdict == "slower"
        eight = [*slow[:8], _REF[8] * 0.5, _REF[9] * 0.5]
        v = paired_verdict(_REF, eight)
        assert v.a_wins == 8
        assert v.verdict == "unresolved"

    def test_ties_count_for_neither_side(self):
        slow = [t * 1.3 for t in _REF]
        v = paired_verdict(_REF, [*slow[:8], _REF[8], _REF[9]])
        assert (v.a_wins, v.b_wins) == (8, 0)
        assert v.verdict == "unresolved"

    def test_a_gap_inside_the_spread_is_unresolved(self):
        v = paired_verdict(_REF, [t + 0.05 for t in _REF])
        assert v.a_wins == 10
        assert v.b_median - v.a_median < v.spread
        assert v.verdict == "unresolved"

    def test_sides_must_pair_up(self):
        with pytest.raises(AnalysisError, match="paired timings"):
            paired_verdict([1.0, 2.0], [1.0])
        with pytest.raises(AnalysisError, match="paired timings"):
            paired_verdict([], [])


class TestTiming:
    def test_warmup_plus_repeats_call_counts(self):
        calls = []

        def fn():
            calls.append(len(calls))
            return {"ops": 1}

        sample, results = time_callable(fn, repeats=3, warmup=2)
        assert len(calls) == 5
        assert sample.repeats == 3
        assert sample.warmup == 2
        assert len(results) == 5
        assert sample.best <= sample.median

    def test_timed_calls_run_with_the_collector_frozen(self):
        """Objects alive before the timed loop are frozen out of the
        cyclic collector, so no collection owed to them lands in a timed
        call; they are released again, also when the kernel raises."""
        assert gc.get_freeze_count() == 0
        seen = []

        def fn():
            seen.append(gc.get_freeze_count())
            return {"ops": 1}

        time_callable(fn, repeats=3, warmup=0)
        assert len(seen) == 3 and all(count > 0 for count in seen)
        assert gc.get_freeze_count() == 0

        def boom():
            seen.append(gc.get_freeze_count())
            raise RuntimeError("kernel failed")

        with pytest.raises(RuntimeError, match="kernel failed"):
            time_callable(boom, repeats=2, warmup=0)
        assert seen[-1] > 0
        assert gc.get_freeze_count() == 0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            time_callable(lambda: None, repeats=0)
        with pytest.raises(AnalysisError):
            time_callable(lambda: None, warmup=-1)
        with pytest.raises(AnalysisError):
            TimingSample(seconds=(), warmup=0)


class TestBenchSpecRegistry:
    def test_suite_validation(self):
        with pytest.raises(AnalysisError):
            BenchSpec(name="x", description="d", suites=("nope",),
                      kernel=lambda: (lambda: {"ops": 1}))
        with pytest.raises(AnalysisError):  # full is implicit
            BenchSpec(name="x", description="d", suites=("full",),
                      kernel=lambda: (lambda: {"ops": 1}))

    def test_timing_knob_validation(self):
        kernel = lambda: (lambda: {"ops": 1})  # noqa: E731
        with pytest.raises(AnalysisError):
            BenchSpec(name="x", description="d", kernel=kernel, repeats=0)
        with pytest.raises(AnalysisError):
            BenchSpec(name="x", description="d", kernel=kernel, warmup=-1)
        with pytest.raises(AnalysisError):
            BenchSpec(name="bad name", description="d", kernel=kernel)

    def test_builtin_registry_covers_the_migrated_benches(self):
        for expected in (
            "t1_degree_quality", "t2_messages", "t4_rounds",
            "t5_lower_bound", "t6_initial_tree", "t7_message_size",
            "t8_vs_sequential", "t9_ablation", "executor_sweep",
            "campaign_tiny", "event_queue_ops", "policy_queue_ops",
            "echo_wave", "full_protocol",
        ):
            assert BENCHES[expected].name == expected

    def test_no_two_builtin_benches_share_a_name(self):
        from repro.perf.library import _build

        assert len(BENCHES) == len(_build())

    def test_suites_nest(self):
        smoke = {b.name for b in suite_benches("smoke")}
        full = {b.name for b in suite_benches("full")}
        assert smoke < full
        assert full == set(BENCHES)
        with pytest.raises(UnknownNameError, match="unknown suite 'nightly'"):
            suite_benches("nightly")


def _result(name="b1", work=None, best=1.0):
    return BenchResult(
        name=name,
        work=dict(work or {"events": 10, "messages": 5}),
        timing={
            "warmup": 1, "repeats": 3, "seconds": [best, best * 1.1, best * 1.2],
            "best": best, "median": best * 1.1, "iqr": best * 0.1,
        },
        derived={"events_per_sec": 10 / best},
    )


def _baseline(results, machine=None, **kwargs):
    return Baseline(
        suite="smoke",
        results=tuple(results),
        machine=machine or machine_fingerprint(),
        **kwargs,
    )


class TestBaselineFiles:
    def test_round_trip(self, tmp_path):
        base = _baseline([_result()], git_rev="abc1234", notes="hello")
        path = save_baseline(base, tmp_path / "BENCH_0001.json")
        loaded = load_baseline(path)
        assert loaded == base
        assert loaded.schema == BASELINE_SCHEMA
        assert loaded.result("b1").work == {"events": 10, "messages": 5}
        assert loaded.result("nope") is None

    def test_work_section_excludes_timing_and_provenance(self):
        a = _baseline([_result(best=1.0)], git_rev="aaa")
        b = _baseline([_result(best=99.0)], git_rev="bbb", notes="different")
        assert work_bytes(a) == work_bytes(b)
        payload = json.loads(work_bytes(a))
        assert payload == {"b1": {"events": 10, "messages": 5}}

    def test_schema_mismatch_is_a_friendly_error(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        doc = _baseline([_result()]).to_json_dict()
        doc["schema"] = BASELINE_SCHEMA + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(AnalysisError, match="schema"):
            load_baseline(path)

    def test_unreadable_and_missing_files(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such baseline"):
            load_baseline(tmp_path / "gone.json")
        bad = tmp_path / "BENCH_corrupt.json"
        bad.write_text("{not json")
        with pytest.raises(AnalysisError, match="unreadable"):
            load_baseline(bad)

    def test_invalid_documents(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema": BASELINE_SCHEMA}))
        with pytest.raises(AnalysisError, match="invalid baseline"):
            load_baseline(path)
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(AnalysisError):
            load_baseline(path)

    def test_work_metrics_must_be_ints(self):
        with pytest.raises(AnalysisError, match="must be an int"):
            _result(work={"events": 1.5})
        with pytest.raises(AnalysisError, match="must be an int"):
            _result(work={"ok": True})
        with pytest.raises(AnalysisError, match="no work metrics"):
            BenchResult(name="b1", work={}, timing={})

    def test_duplicate_results_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate"):
            _baseline([_result("b1"), _result("b1")])

    def test_committed_file_with_a_ci90_field_loads_and_gates(self):
        """``BENCH_0021.json`` predates the paired verdict: its timing
        sections carry a ``ci90`` interval nothing reads any more."""
        base = load_baseline(Path(__file__).resolve().parents[1] / "BENCH_0021.json")
        assert base.suite == "smoke" and base.results
        assert all("ci90" in result.timing for result in base.results)
        assert compare_baselines(base, base).ok

    def test_every_committed_file_loads(self):
        """Older files carry a per-result ``kind`` that nothing reads any
        more; every committed file loads, and a saved copy drops it."""
        from repro.perf import baseline_paths

        root = Path(__file__).resolve().parents[1]
        old = json.loads((root / "BENCH_0021.json").read_text())
        assert all("kind" in r for r in old["results"])
        paths = baseline_paths(root)
        assert len(paths) >= 4
        for path in paths:
            base = load_baseline(path)
            assert base.results
            assert all("kind" not in r for r in base.to_json_dict()["results"])

    def test_latest_baseline_path(self, tmp_path):
        assert latest_baseline_path(tmp_path) is None
        save_baseline(_baseline([_result()]), tmp_path / "BENCH_0003.json")
        save_baseline(_baseline([_result()]), tmp_path / "BENCH_0010.json")
        assert latest_baseline_path(tmp_path).name == "BENCH_0010.json"


class TestCompareGate:
    def test_identical_runs_pass(self):
        base = _baseline([_result()])
        comp = compare_baselines(base, _baseline([_result()]))
        assert comp.ok
        assert "PASS" in comp.render()

    def test_exact_work_mismatch_fails_in_both_directions(self):
        base = _baseline([_result(work={"events": 10})])
        for delta in (9, 11):
            cur = _baseline([_result(work={"events": delta})])
            comp = compare_baselines(base, cur)
            assert not comp.ok
            (failure,) = [v for v in comp.failures if v.kind == "work"]
            assert failure.metric == "work.events"

    def test_work_keys_must_match(self):
        base = _baseline([_result(work={"events": 10})])
        cur = _baseline([_result(work={"events": 10, "extra": 1})])
        assert not compare_baselines(base, cur).ok

    def test_missing_bench_fails_new_bench_informs(self):
        base = _baseline([_result("a"), _result("b")])
        cur = _baseline([_result("a"), _result("c")])
        comp = compare_baselines(base, cur)
        assert not comp.ok
        assert any(v.bench == "b" and v.kind == "presence"
                   for v in comp.failures)
        skips = [v for v in comp.verdicts if v.status == "skip"]
        assert any(v.bench == "c" for v in skips)


class TestComparePairs:
    def test_rows_cover_benches_on_both_sides(self):
        a_runs = [_baseline([_result("a", best=t), _result("gone", best=t)])
                  for t in _REF]
        b_runs = [_baseline([_result("a", best=t * 1.3),
                             _result("new", work={"ops": 1}, best=t)])
                  for t in _REF]
        comp = compare_pairs(a_runs, b_runs)
        assert [name for name, _ in comp.rows] == ["a"]
        assert comp.slower == ("a",)
        assert comp.unpaired == ("gone", "new")
        assert not comp.work_equal
        text = comp.render()
        assert "not paired (on one side only): gone, new" in text
        assert "work sections: differ" in text

    def test_equal_work_on_both_sides(self):
        runs = [_baseline([_result(best=t)]) for t in _REF]
        comp = compare_pairs(runs, runs)
        assert comp.work_equal and comp.unpaired == () and comp.slower == ()
        assert "work sections: equal" in comp.render()


def _tiny_sweep_bench(name="zz_sweep", suites=("smoke",)):
    return BenchSpec(
        name=name,
        description="tiny sweep for tests",
        suites=suites,
        kernel=cells_kernel(
            SweepSpec(families=("ring",), sizes=(6, 8), seeds=(0, 1)).cells
        ),
        repeats=1,
        warmup=0,
    )


def _tiny_micro_bench(name="zz_micro", suites=("smoke",)):
    return BenchSpec(
        name=name,
        description="tiny micro for tests",
        suites=suites,
        kernel=lambda: (lambda: {"ops": 42}),
        repeats=2,
        warmup=0,
    )


@pytest.fixture
def add_bench(monkeypatch):
    """A scratch, empty bench table (tests never touch the real one):
    ``add_bench(spec, ...)`` enters specs into it."""
    from repro.perf import library

    table: dict[str, BenchSpec] = {}
    monkeypatch.setattr(library, "BENCHES", table)
    return lambda *specs: table.update((spec.name, spec) for spec in specs)


class TestSuiteRunner:
    def test_tiny_suite_end_to_end(self, add_bench):
        add_bench(_tiny_sweep_bench())
        add_bench(_tiny_micro_bench())
        base = run_suite("smoke")
        assert base.suite == "smoke"
        assert base.bench_names() == ("zz_micro", "zz_sweep")
        micro = base.result("zz_micro")
        assert micro.work == {"ops": 42}
        assert micro.derived["ops_per_sec"] > 0
        sweep = base.result("zz_sweep")
        assert sweep.work["cells"] == 4
        assert sweep.work["events"] > 0
        assert sweep.derived["events_per_sec"] > 0
        assert sweep.timing["repeats"] == 1
        assert set(sweep.timing) == {
            "warmup", "repeats", "seconds", "best", "median", "iqr"
        }

    def test_non_deterministic_micro_fails_loudly(self, add_bench):
        counter = iter(range(100))

        def kernel():
            return lambda: {"ops": next(counter)}

        add_bench(
            BenchSpec(name="zz_flaky", description="d", suites=("smoke",),
                      kernel=kernel, repeats=2, warmup=0)
        )
        with pytest.raises(AnalysisError, match="not work-deterministic"):
            run_suite("smoke")

    def test_empty_suite_is_an_error(self, add_bench):
        with pytest.raises(AnalysisError, match="no registered benches"):
            run_suite("smoke")

    def test_repeats_and_warmup_overrides(self, add_bench):
        add_bench(_tiny_micro_bench())
        base = run_suite("smoke", repeats=4, warmup=2)
        timing = base.result("zz_micro").timing
        assert timing["repeats"] == 4
        assert timing["warmup"] == 2
        assert len(timing["seconds"]) == 4

    def test_aggregate_work_counts_stalls(self):
        from repro.analysis.harness import run_single

        ok = run_single("ring", 6, seed=0)
        stalled = run_single("gnp_sparse", 16, seed=0, fault="lossy_heavy")
        work = aggregate_work([ok, stalled])
        assert work["cells"] == 2
        assert work["stalled"] == (0 if stalled.ok else 1)
        assert work["events"] == ok.events + stalled.events


class TestMutationSelfTest:
    """The loop-dominated benches under the ``slow_event_loop`` switch's
    blast radius replay with identical work; the slowdown itself is
    judged by a paired ``bench --compare REV`` (the CI perf-smoke job)."""

    @pytest.fixture
    def loop_suite(self, add_bench):
        """Just the loop-dominated benches — the mutation's blast
        radius, kept small so the self-test stays fast."""
        from repro.perf.workloads import echo_wave_kernel, full_protocol_kernel

        add_bench(
            BenchSpec(name="echo_wave", description="d", suites=("smoke",),
                      kernel=echo_wave_kernel, repeats=3)
        )
        add_bench(
            BenchSpec(name="full_protocol", description="d", suites=("smoke",),
                      kernel=full_protocol_kernel, repeats=2)
        )

    def test_healthy_replay_passes_the_work_gate(self, loop_suite):
        a = run_suite("smoke")
        b = run_suite("smoke")
        assert compare_baselines(a, b).ok
        assert work_bytes(a) == work_bytes(b)

    def test_mutated_run_records_the_healthy_work(self, loop_suite):
        healthy = run_suite("smoke", repeats=1, warmup=0)
        with mutated("slow_event_loop"):
            slow = run_suite("smoke", repeats=1, warmup=0)
        assert compare_baselines(healthy, slow).ok
        assert work_bytes(healthy) == work_bytes(slow)


class TestEdgeBranches:
    def test_git_revision_outside_a_checkout(self, tmp_path):
        from repro.perf.baseline import git_revision

        assert git_revision(tmp_path) == "unknown"
        assert git_revision(".") != ""  # inside the repo: some revision

    def test_suites_are_a_name_table(self):
        from repro.perf import SUITES

        assert tuple(SUITES) == ("smoke", "core", "full")

    def test_file_verdict_reads_no_timing(self):
        """Against a file only work is judged: a run whose timing section
        is unusable, or 100x slower, still passes."""
        base = _baseline([_result()])
        broken = _result()
        object.__setattr__(broken, "timing", {"best": None})
        assert compare_baselines(base, _baseline([broken])).ok
        assert compare_baselines(base, _baseline([_result(best=100.0)])).ok

    def test_verdict_json_round_trip(self):
        comp = compare_baselines(_baseline([_result()]), _baseline([_result()]))
        payload = [v.to_json_dict() for v in comp.verdicts]
        assert all(p["bench"] == "b1" for p in payload)

    def test_bench_result_rejects_malformed_documents(self):
        with pytest.raises(AnalysisError, match="invalid bench result"):
            BenchResult.from_json_dict({"name": "x"})

    def test_mutated_slow_loop_preserves_traces(self):
        """Delivery under ``slow_event_loop`` must stay
        byte-identical in behaviour — including the trace channel."""
        from repro.graphs import gnp_connected
        from repro.sim.trace import TraceRecorder
        from repro.spanning import build_spanning_tree

        g = gnp_connected(12, 0.3, seed=5)
        fast_trace = TraceRecorder()
        fast = build_spanning_tree(g, method="echo", trace=fast_trace)
        slow_trace = TraceRecorder()
        with mutated("slow_event_loop"):
            slow = build_spanning_tree(g, method="echo", trace=slow_trace)
        assert fast.tree.edges() == slow.tree.edges()
        assert fast.report == slow.report
        assert len(fast_trace.records) == len(slow_trace.records)
        assert fast_trace.records == slow_trace.records


class TestCoreSuiteCoversTheMigratedWorkloads:
    def test_core_suite_runs_and_is_self_consistent(self):
        """One cheap pass over the full core suite: every migrated
        t-workload executes, work metrics are populated, and each
        sweep-backed table times exactly its sweep's cells."""
        base = run_suite("core", repeats=1, warmup=0)
        names = set(base.bench_names())
        assert {"t1_degree_quality", "t4_rounds", "t5_lower_bound",
                "t6_initial_tree", "t8_vs_sequential", "t9_ablation",
                "t2_messages", "t7_message_size",
                "executor_sweep", "campaign_tiny"} <= names
        for result in base.results:
            assert result.timing["best"] > 0
            assert sum(result.work.values()) > 0
        # one bench per distinct sweep: T3 renders T2's records, so the
        # suite runs CLAIMS_SPEC once
        assert "t3_time" not in names
        sweeps = [
            e.sweep for e in EXPERIMENTS.values()
            if e.slug in names and e.sweep is not None
        ]
        assert len(sweeps) == len(set(sweeps))
        for name in ("t2", "t7"):
            experiment = EXPERIMENTS[name]
            work = base.result(experiment.slug).work
            assert work["cells"] == len(experiment.sweep.cells())
        # the tiny campaign exercises fault regimes: stalls are expected
        assert base.result("campaign_tiny").work["stalled"] > 0
