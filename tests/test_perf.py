"""The perf subsystem: stats determinism, baseline round-trips,
compare/gate verdicts, suite-runner determinism, and the
``slow_event_loop`` mutation self-test."""

import json
from dataclasses import replace

import pytest

from repro._mutation import mutated
from repro.analysis.harness import SweepSpec
from repro.errors import AnalysisError
from repro.perf import (
    BASELINE_SCHEMA,
    Baseline,
    BenchResult,
    BenchSpec,
    bench_names,
    bootstrap_ci,
    compare_baselines,
    get_bench,
    iqr,
    latest_baseline_path,
    load_baseline,
    machine_fingerprint,
    median,
    quantile,
    register_bench,
    run_suite,
    save_baseline,
    suite_benches,
    time_callable,
    work_bytes,
)
from repro.perf.runner import aggregate_work
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

    def test_bootstrap_ci_is_deterministic_in_the_seed(self):
        values = [1.0, 1.2, 0.9, 1.4, 1.1, 1.05]
        a = bootstrap_ci(values, seed=7)
        b = bootstrap_ci(values, seed=7)
        c = bootstrap_ci(values, seed=8)
        assert a == b
        assert a != c  # a different stream resamples differently
        lo, hi = a
        assert lo <= median(values) <= hi

    def test_bootstrap_ci_single_value_degenerates(self):
        assert bootstrap_ci([2.5], seed=0) == (2.5, 2.5)

    def test_bootstrap_ci_validation(self):
        with pytest.raises(AnalysisError):
            bootstrap_ci([], seed=0)
        with pytest.raises(AnalysisError):
            bootstrap_ci([1.0, 2.0], resamples=0)
        with pytest.raises(AnalysisError):
            bootstrap_ci([1.0, 2.0], confidence=1.0)


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

    def test_validation(self):
        with pytest.raises(AnalysisError):
            time_callable(lambda: None, repeats=0)
        with pytest.raises(AnalysisError):
            time_callable(lambda: None, warmup=-1)
        with pytest.raises(AnalysisError):
            TimingSample(seconds=(), warmup=0)


class TestBenchSpecRegistry:
    def test_exactly_one_source(self):
        with pytest.raises(AnalysisError):
            BenchSpec(name="x", description="d")
        with pytest.raises(AnalysisError):
            BenchSpec(
                name="x", description="d",
                sweep=SweepSpec(), micro=lambda: (lambda: {"ops": 1}),
            )

    def test_suite_validation(self):
        with pytest.raises(AnalysisError):
            BenchSpec(name="x", description="d", suites=("nope",),
                      micro=lambda: (lambda: {"ops": 1}))
        with pytest.raises(AnalysisError):  # full is implicit
            BenchSpec(name="x", description="d", suites=("full",),
                      micro=lambda: (lambda: {"ops": 1}))

    def test_timing_knob_validation(self):
        kernel = lambda: (lambda: {"ops": 1})  # noqa: E731
        with pytest.raises(AnalysisError):
            BenchSpec(name="x", description="d", micro=kernel, repeats=0)
        with pytest.raises(AnalysisError):
            BenchSpec(name="x", description="d", micro=kernel, warmup=-1)
        with pytest.raises(AnalysisError):
            BenchSpec(name="bad name", description="d", micro=kernel)

    def test_builtin_registry_covers_the_migrated_benches(self):
        names = bench_names()
        for expected in (
            "t1_degree_quality", "t2_messages", "t4_rounds",
            "t5_lower_bound", "t6_initial_tree", "t7_message_size",
            "t8_vs_sequential", "t9_ablation", "executor_sweep",
            "campaign_tiny", "event_queue_ops", "policy_queue_ops",
            "echo_wave", "full_protocol",
        ):
            assert expected in names
        assert get_bench("echo_wave").kind == "micro"
        assert get_bench("t2_messages").kind == "sweep"
        assert get_bench("t2_messages").cells()  # sweeps lower to cells

    def test_suites_nest(self):
        smoke = {b.name for b in suite_benches("smoke")}
        full = {b.name for b in suite_benches("full")}
        assert smoke < full
        assert full == set(bench_names())
        with pytest.raises(AnalysisError):
            suite_benches("nightly")

    def test_register_rejects_duplicates(self, monkeypatch):
        from repro.perf import spec as spec_mod

        monkeypatch.setattr(spec_mod, "_BENCHES", dict(spec_mod._BENCHES))
        spec = BenchSpec(name="zz_dup", description="d",
                         micro=lambda: (lambda: {"ops": 1}))
        register_bench(spec)
        with pytest.raises(AnalysisError):
            register_bench(spec)
        register_bench(spec, replace=True)
        with pytest.raises(AnalysisError):
            get_bench("zz_missing")


def _result(name="b1", work=None, best=1.0, kind="micro"):
    return BenchResult(
        name=name,
        kind=kind,
        work=dict(work or {"events": 10, "messages": 5}),
        timing={
            "warmup": 1, "repeats": 3, "seconds": [best, best * 1.1, best * 1.2],
            "best": best, "median": best * 1.1, "iqr": best * 0.1,
            "ci90": [best, best * 1.2],
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
            BenchResult(name="b1", kind="micro", work={}, timing={})

    def test_duplicate_results_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate"):
            _baseline([_result("b1"), _result("b1")])

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
        assert comp.time_gated  # same machine fingerprint
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

    def test_time_drift_within_tolerance_passes(self):
        base = _baseline([_result(best=1.0)])
        cur = _baseline([_result(best=1.15)])
        comp = compare_baselines(base, cur)
        assert comp.ok

    def test_time_regression_beyond_tolerance_fails_when_gated(self):
        base = _baseline([_result(best=1.0)])
        cur = _baseline([_result(best=1.5)])
        comp = compare_baselines(base, cur)
        assert not comp.ok
        (failure,) = comp.failures
        assert failure.metric == "time.best"
        assert "tolerance" in failure.detail

    def test_time_not_gated_across_machines(self):
        other = dict(machine_fingerprint(), cpus=4096)
        base = _baseline([_result(best=1.0)], machine=other)
        cur = _baseline([_result(best=100.0)])
        comp = compare_baselines(base, cur)  # auto: fingerprints differ
        assert not comp.time_gated
        assert comp.ok
        # ...but work still gates exactly across machines
        cur_bad = _baseline([_result(work={"events": 1, "messages": 5})])
        assert not compare_baselines(base, cur_bad).ok

    def test_gate_time_can_be_forced(self):
        other = dict(machine_fingerprint(), cpus=4096)
        base = _baseline([_result(best=1.0)], machine=other)
        cur = _baseline([_result(best=100.0)])
        assert not compare_baselines(base, cur, gate_time=True).ok
        same = _baseline([_result(best=100.0)])
        assert compare_baselines(_baseline([_result(best=1.0)]),
                                 same, gate_time=False).ok

    def test_missing_bench_fails_new_bench_informs(self):
        base = _baseline([_result("a"), _result("b")])
        cur = _baseline([_result("a"), _result("c")])
        comp = compare_baselines(base, cur)
        assert not comp.ok
        assert any(v.bench == "b" and v.kind == "presence"
                   for v in comp.failures)
        skips = [v for v in comp.verdicts if v.status == "skip"]
        assert any(v.bench == "c" for v in skips)

    def test_time_improvement_passes(self):
        base = _baseline([_result(best=1.0)])
        cur = _baseline([_result(best=0.5)])
        assert compare_baselines(base, cur).ok


def _tiny_sweep_bench(name="zz_sweep", suites=("smoke",)):
    return BenchSpec(
        name=name,
        description="tiny sweep for tests",
        suites=suites,
        sweep=SweepSpec(families=("ring",), sizes=(6, 8), seeds=(0, 1)),
        repeats=1,
        warmup=0,
    )


def _tiny_micro_bench(name="zz_micro", suites=("smoke",)):
    return BenchSpec(
        name=name,
        description="tiny micro for tests",
        suites=suites,
        micro=lambda: (lambda: {"ops": 42}),
        repeats=2,
        warmup=0,
    )


@pytest.fixture
def private_registry(monkeypatch):
    """A scratch bench registry (tests never pollute the real one)."""
    from repro.perf import spec as spec_mod

    monkeypatch.setattr(spec_mod, "_BENCHES", {})
    return spec_mod


class TestSuiteRunner:
    def test_tiny_suite_end_to_end(self, private_registry):
        register_bench(_tiny_sweep_bench())
        register_bench(_tiny_micro_bench())
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
        lo, hi = sweep.timing["ci90"]
        assert lo <= hi

    def test_work_section_identical_serial_parallel_cached(
        self, private_registry, tmp_path
    ):
        register_bench(_tiny_sweep_bench())
        register_bench(_tiny_micro_bench())
        serial = run_suite("smoke")
        parallel = run_suite("smoke", jobs=2)
        cold = run_suite("smoke", cache=tmp_path / "cache")
        warm = run_suite("smoke", cache=tmp_path / "cache")
        blob = work_bytes(serial)
        assert work_bytes(parallel) == blob
        assert work_bytes(cold) == blob
        assert work_bytes(warm) == blob

    def test_non_deterministic_micro_fails_loudly(self, private_registry):
        counter = iter(range(100))

        def kernel():
            return lambda: {"ops": next(counter)}

        register_bench(
            BenchSpec(name="zz_flaky", description="d", suites=("smoke",),
                      micro=kernel, repeats=2, warmup=0)
        )
        with pytest.raises(AnalysisError, match="not work-deterministic"):
            run_suite("smoke")

    def test_empty_suite_is_an_error(self, private_registry):
        with pytest.raises(AnalysisError, match="no registered benches"):
            run_suite("smoke")

    def test_repeats_and_warmup_overrides(self, private_registry):
        register_bench(_tiny_micro_bench())
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


def _min_of_all(runs):
    """The first run, each bench's best time replaced by its minimum
    over *runs*."""
    results = []
    for r in runs[0].results:
        best = min(run.result(r.name).timing["best"] for run in runs)
        results.append(replace(r, timing={**r.timing, "best": best}))
    return replace(runs[0], results=tuple(results))


class TestMutationSelfTest:
    """The perf analogue of the exploration harness's skip_cutter_gate
    self-test: the gate must notice the slowed message delivery."""

    @pytest.fixture
    def loop_suite(self, private_registry):
        """Just the loop-dominated benches — the mutation's blast
        radius, kept small so the self-test stays fast."""
        from repro.perf.workloads import echo_wave_kernel, full_protocol_kernel

        register_bench(
            BenchSpec(name="echo_wave", description="d", suites=("smoke",),
                      micro=echo_wave_kernel, repeats=3)
        )
        register_bench(
            BenchSpec(name="full_protocol", description="d", suites=("smoke",),
                      micro=full_protocol_kernel, repeats=2)
        )

    def test_slow_event_loop_trips_the_time_gate(self, loop_suite):
        # healthy and mutated runs alternate, so a burst of load from
        # other processes lands on both sides instead of hiding the
        # slowdown; each side keeps its min-of-all per bench
        healthy, slow = [], []
        for _ in range(3):
            healthy.append(run_suite("smoke"))
            with mutated("slow_event_loop"):
                slow.append(run_suite("smoke"))
        # metrics are byte-identical: the mutation only burns time...
        assert {work_bytes(run) for run in healthy + slow} == {work_bytes(healthy[0])}
        # ...which the gated comparison must catch
        comp = compare_baselines(_min_of_all(healthy), _min_of_all(slow), gate_time=True)
        assert not comp.ok
        assert any(v.metric == "time.best" for v in comp.failures)

    def test_healthy_replay_passes_the_work_gate(self, loop_suite):
        a = run_suite("smoke")
        b = run_suite("smoke")
        assert compare_baselines(a, b, gate_time=False).ok
        assert work_bytes(a) == work_bytes(b)


class TestEdgeBranches:
    def test_git_revision_outside_a_checkout(self, tmp_path):
        from repro.perf.baseline import git_revision

        assert git_revision(tmp_path) == "unknown"
        assert git_revision(".") != ""  # inside the repo: some revision

    def test_suite_names_mirrors_the_other_registries(self):
        from repro.perf import SUITES, suite_names

        assert suite_names() == SUITES == ("smoke", "core", "full")

    def test_unusable_timing_verdict(self):
        base = _baseline([_result()])
        broken = _result()
        object.__setattr__(broken, "timing", {"best": None})
        cur = _baseline([broken])
        comp = compare_baselines(base, cur, gate_time=True)
        assert not comp.ok
        assert any("unusable timing" in v.detail for v in comp.failures)
        # ungated, the same breakage is only a skip
        assert compare_baselines(base, cur, gate_time=False).ok

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
        t-workload executes, work metrics are populated, and the sweep
        benches agree between the executor pass and the timing pass
        (run_suite raises on divergence)."""
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
        sweeps = [b.sweep for b in suite_benches("core") if b.sweep is not None]
        assert len(sweeps) == len(set(sweeps))
        # the tiny campaign exercises fault regimes: stalls are expected
        assert base.result("campaign_tiny").work["stalled"] > 0
