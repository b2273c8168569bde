"""Telemetry substrate: registry semantics, trace layout, and the
two-metric discipline — work-like sections byte-identical across
Serial / Parallel / Caching backends, wall-clock segregated and
stripped from deterministic traces."""

import json
import warnings

import pytest

from repro import obs
from repro.analysis import ResultCache, RunSpec, SweepSpec, run_sweep, run_single
from repro.analysis.executor import make_executor
from repro.errors import AnalysisError

SPEC = SweepSpec(families=("ring",), sizes=(8,), seeds=(0, 1, 2))


def sweep_trace(jobs=1, cache=None):
    """One traced sweep run; returns the finished Telemetry."""
    with obs.capture(command="sweep") as t:
        executor = make_executor(jobs=jobs, cache=cache)
        run_sweep(SPEC, executor=executor)
        if hasattr(executor, "close"):
            executor.close()
    return t


def docs_of(t, **kwargs):
    return [json.loads(line) for line in obs.trace_lines(t, **kwargs)]


class TestTelemetry:
    def test_counters_accumulate(self):
        t = obs.Telemetry()
        t.count("exec.groups")
        t.count("exec.groups", 2)
        assert t.counters == {"exec.groups": 3}

    def test_events_preserve_order_and_fields(self):
        t = obs.Telemetry()
        t.event("cache.corruption", segment="seg-00000.pack", offset=12)
        t.event("cache.corruption", segment="seg-00001.pack")
        assert t.events == [
            ("cache.corruption", {"segment": "seg-00000.pack", "offset": 12}),
            ("cache.corruption", {"segment": "seg-00001.pack"}),
        ]

    def test_span_tree_nests_and_attrs_mutate(self):
        t = obs.Telemetry()
        with t.span("outer", cells=2) as outer:
            with t.span("inner"):
                pass
            t.leaf("instant", n=8)
            outer.attrs["failures"] = 1
        (root,) = t.roots
        assert root.name == "outer"
        assert root.attrs == {"cells": 2, "failures": 1}
        assert [c.name for c in root.children] == ["inner", "instant"]

    def test_merge_adds_counters_and_appends_events(self):
        a, b = obs.Telemetry(), obs.Telemetry()
        a.count("exec.groups", 2)
        a.event("cache.corruption", detail="x")
        b.count("exec.groups")
        b.merge(a.dump())
        assert b.counters == {"exec.groups": 3}
        assert b.events == [("cache.corruption", {"detail": "x"})]

    def test_subscriber_sees_every_observation(self):
        seen = []
        t = obs.Telemetry()
        t.subscribe(lambda kind, payload: seen.append((kind, payload)))
        with t.span("phase", cells=1):
            t.count("exec.groups")
            t.event("note", detail="hi")
        assert [kind for kind, _ in seen] == [
            "span_start", "count", "event", "span_end",
        ]
        assert seen[0][1] == {"name": "phase", "cells": 1}

    def test_null_sink_is_inert_and_unsubscribable(self):
        before = dict(obs.NULL.counters)
        obs.NULL.count("exec.groups")
        obs.NULL.event("x")
        with obs.NULL.span("phase") as sp:
            sp.attrs["ignored"] = 1
        assert obs.NULL.counters == before == {}
        assert obs.NULL.events == [] and obs.NULL.roots == []
        with pytest.raises(RuntimeError):
            obs.NULL.subscribe(lambda *a: None)

    def test_current_capture_and_suspended(self):
        assert obs.current() is obs.NULL
        with obs.capture() as t:
            assert obs.current() is t
            with obs.suspended():
                assert obs.current() is obs.NULL
                obs.current().count("exec.groups")
            assert obs.current() is t
        assert obs.current() is obs.NULL
        assert t.counters == {}


class TestSections:
    @pytest.mark.parametrize(
        "name,section",
        [
            ("cache.hits.disk", "cache"),
            ("exec.lockstep.turns", "exec"),
            ("pool.start", "env"),
            ("sweep", "work"),
        ],
    )
    def test_prefix_routing(self, name, section):
        assert obs.section_of(name) == section


class TestTraceLayout:
    def make_telemetry(self):
        t = obs.Telemetry(command="sweep")
        with t.span("sweep", cells=2):
            t.leaf("group", n=8)
        t.count("exec.groups")
        t.count("cache.misses", 2)
        t.event("cache.corruption", detail="torn")
        t.event("pool.start", workers=2)
        return t

    def test_deterministic_lines_order_and_content(self):
        docs = docs_of(self.make_telemetry())
        assert [d["kind"] for d in docs] == [
            "header", "span", "span", "counter", "counter", "event",
        ]
        assert docs[0]["layout"] == obs.TRACE_LAYOUT
        assert docs[0]["deterministic"] is True
        assert docs[1] == {
            "kind": "span", "id": 0, "parent": None, "name": "sweep",
            "attrs": {"cells": 2},
        }
        assert docs[2]["parent"] == 0
        # counters sorted by (section, name); env events stripped
        assert [d["name"] for d in docs[3:5]] == ["cache.misses", "exec.groups"]
        assert docs[5]["name"] == "cache.corruption"

    def test_full_trace_is_deterministic_plus_suffix(self):
        t = self.make_telemetry()
        det = obs.trace_lines(t)
        full = obs.trace_lines(t, deterministic=False, env={"jobs": 2})
        assert full[1 : len(det)] == det[1:]  # header flag differs
        suffix = [json.loads(line) for line in full[len(det) :]]
        assert [d["kind"] for d in suffix] == ["env", "event", "wall", "wall"]
        assert suffix[0]["fields"] == {"jobs": 2}
        assert suffix[1]["name"] == "pool.start"
        assert {d["span"] for d in suffix[2:]} == {0, 1}

    def test_write_read_round_trip(self, tmp_path):
        t = self.make_telemetry()
        path = obs.write_trace(tmp_path / "t.jsonl", t)
        assert obs.read_trace(path) == docs_of(t)

    def test_read_rejects_missing_and_malformed(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such trace"):
            obs.read_trace(tmp_path / "absent.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        with pytest.raises(AnalysisError, match="not a telemetry trace"):
            obs.read_trace(bad)
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text('{"kind":"span"}\n', encoding="utf-8")
        with pytest.raises(AnalysisError, match="missing trace header"):
            obs.read_trace(headerless)
        future = tmp_path / "future.jsonl"
        future.write_text('{"kind":"header","layout":99}\n', encoding="utf-8")
        with pytest.raises(AnalysisError, match="unsupported trace layout"):
            obs.read_trace(future)

    def test_work_section_slices_spans_and_work_docs(self):
        docs = docs_of(self.make_telemetry())
        work = obs.work_section(docs)
        assert [d["kind"] for d in work] == ["span", "span"]


class TestBackendIdentity:
    """The tentpole contract: work-like telemetry is a pure function of
    the work, not of how (or whether) it physically executed."""

    def test_serial_and_parallel_traces_are_byte_identical(self):
        serial = obs.trace_lines(sweep_trace(jobs=1))
        parallel = obs.trace_lines(sweep_trace(jobs=2))
        assert serial == parallel

    def test_cold_caching_matches_for_any_job_count(self, tmp_path):
        cold1 = obs.trace_lines(sweep_trace(cache=str(tmp_path / "a")))
        cold2 = obs.trace_lines(sweep_trace(jobs=2, cache=str(tmp_path / "b")))
        assert cold1 == cold2

    def test_work_section_identical_across_all_backends(self, tmp_path):
        cache = str(tmp_path / "c")
        traces = [
            sweep_trace(),
            sweep_trace(jobs=2),
            sweep_trace(cache=cache),  # cold
            sweep_trace(cache=cache),  # warm: nothing executes
        ]
        sections = [obs.work_section(docs_of(t)) for t in traces]
        assert sections[0] == sections[1] == sections[2] == sections[3]
        names = [d["name"] for d in sections[0] if d["kind"] == "span"]
        assert names == ["sweep", "sweep.execute", "group"]

    def test_warm_cache_serves_everything_and_executes_nothing(self, tmp_path):
        cache = str(tmp_path / "w")
        cold = sweep_trace(cache=cache)
        warm = sweep_trace(cache=cache)
        assert cold.counters["cache.misses"] == 3
        assert cold.counters["exec.cells.batched"] == 3
        assert warm.counters["cache.hits.disk"] == 3
        assert "cache.misses" not in warm.counters
        assert not any(n.startswith("exec.") for n in warm.counters)


class TestCorruptionTelemetry:
    def test_counter_counts_all_and_event_carries_context(self, tmp_path):
        pairs = [
            (RunSpec(family="ring", n=8, seed=seed), run_single("ring", 8, seed=seed))
            for seed in range(3)
        ]
        ResultCache(tmp_path, memory_entries=0).put_many(pairs)
        (segment,) = (tmp_path / "segments").glob("seg-*.pack")
        segment.write_bytes(b"x" * segment.stat().st_size)
        fresh = ResultCache(tmp_path, memory_entries=0)
        with obs.capture() as t, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert fresh.get_many([s for s, _ in pairs]) == [None] * 3
        assert t.counters["cache.corruption"] == 3  # every occurrence
        assert t.counters["cache.misses"] == 3
        (event,) = [f for n, f in t.events if n == "cache.corruption"]
        assert event["segment"] == segment.name  # deduped: one event
        assert "offset" in event and "key" in event


class TestSubscriberIsolation:
    """Satellite contract: observation never corrupts the observed run.
    A raising subscriber is warned about once, dropped, and everything
    else — other subscribers, the span stack, the run — continues."""

    def test_raising_subscriber_is_warned_once_and_dropped(self):
        t = obs.Telemetry()
        calls = []

        def bad(kind, payload):
            calls.append(kind)
            raise RuntimeError("broken observer")

        t.subscribe(bad)
        with pytest.warns(RuntimeWarning, match="broken observer"):
            t.count("exec.groups")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would fail
            t.count("exec.groups", 2)
        assert calls == ["count"]  # dropped after the first raise
        assert t.counters == {"exec.groups": 3}  # observation landed

    def test_other_subscribers_still_fire(self):
        t = obs.Telemetry()
        seen = []

        def bad(kind, payload):
            raise ValueError("nope")

        t.subscribe(bad)
        t.subscribe(lambda kind, payload: seen.append(kind))
        with pytest.warns(RuntimeWarning):
            t.event("note", detail="x")
        t.count("exec.groups")
        assert seen == ["event", "count"]

    def test_span_stack_survives_a_raising_subscriber(self):
        t = obs.Telemetry()

        def bad(kind, payload):
            raise RuntimeError("span observer died")

        t.subscribe(bad)
        with pytest.warns(RuntimeWarning):
            with t.span("outer", cells=1):
                with t.span("inner"):
                    pass
        (root,) = t.roots
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]
        assert t._stack == []  # nesting state intact after the drop


class TestStalledRunTelemetry:
    """Telemetry on runs that do not finish: cache/work counters and
    spans stay deterministic when the outcome is ``stalled`` — under
    mid-run churn and under fault plans, serial vs parallel vs cached."""

    STORM = SweepSpec(
        families=("gnp_sparse",), sizes=(8,), seeds=(0, 1, 2),
        initial_methods=("random",), churns=("churn_storm",),
    )
    FAULTY = SweepSpec(
        families=("gnp_sparse",), sizes=(8,), seeds=(0, 1, 2),
        initial_methods=("random",), faults=("crash_storm",),
    )

    @staticmethod
    def traced(spec, jobs=1, cache=None):
        with obs.capture(command="sweep") as t:
            executor = make_executor(jobs=jobs, cache=cache)
            records = run_sweep(spec, executor=executor)
            if hasattr(executor, "close"):
                executor.close()
        return t, records

    @pytest.mark.parametrize("spec", [STORM, FAULTY], ids=["churn", "fault"])
    def test_stalled_work_section_identical_across_backends(
        self, spec, tmp_path
    ):
        serial, records = self.traced(spec)
        assert any(r.outcome == "stalled" for r in records), (
            "fixture must actually stall for this test to bite"
        )
        parallel, _ = self.traced(spec, jobs=2)
        cold, _ = self.traced(spec, cache=str(tmp_path / "c"))
        warm, _ = self.traced(spec, cache=str(tmp_path / "c"))
        sections = [
            obs.work_section(docs_of(t))
            for t in (serial, parallel, cold, warm)
        ]
        assert sections[0] == sections[1] == sections[2] == sections[3]
        (group,) = [
            d for d in sections[0]
            if d["kind"] == "span" and d["name"] == "group"
        ]
        assert group["attrs"]["stalled"] >= 1

    def test_stalled_traces_byte_identical_serial_vs_parallel(self):
        a = obs.trace_lines(self.traced(self.STORM)[0])
        b = obs.trace_lines(self.traced(self.STORM, jobs=2)[0])
        assert a == b
