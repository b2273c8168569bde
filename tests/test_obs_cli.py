"""CLI surface of the telemetry layer: ``--trace-out`` on the batch
commands, the ``repro obs`` summarizer (golden output), and the
regression guarantee that tracing never changes any pre-existing
deterministic artifact."""

import json

import pytest

from repro import obs
from repro.cli import main

FAST = ["--repeats", "1", "--warmup", "0"]

OBS_GOLDEN = """\
trace summary — command: sweep (deterministic)

spans — 3 span(s), 3 name(s)
============================
span           count  total [ms]  self [ms]  work
----------------------------------------------------------------------------------------------------
sweep              1  —           —          cells=3
sweep.execute      1  —           —          —
group              1  —           —          cells=3 events=87 messages=63 n=8 stalled=0 family=ring

counters:
  cache.corruption   1
  cache.hits.disk    1
  cache.hits.memory  2
  cache.misses       1
  exec.groups        1

cache: 3 hit(s) (2 memory, 1 disk), 1 miss(es), 1 corruption(s) — hit rate 75.0%

events: 1
  cache.corruption  x1
"""


def synthetic_trace(path):
    t = obs.Telemetry(command="sweep")
    with t.span("sweep", cells=3):
        with t.span("sweep.execute"):
            pass
        t.leaf("group", family="ring", n=8, cells=3, events=87,
               messages=63, stalled=0)
    t.count("exec.groups")
    t.count("cache.hits.memory", 2)
    t.count("cache.hits.disk", 1)
    t.count("cache.misses", 1)
    t.count("cache.corruption", 1)
    t.event("cache.corruption", detail="truncated segment",
            segment="seg-00000.pack")
    return obs.write_trace(path, t)


class TestObsCommand:
    def test_golden_summary(self, capsys, tmp_path):
        path = synthetic_trace(tmp_path / "t.jsonl")
        assert main(["obs", str(path)]) == 0
        assert capsys.readouterr().out == OBS_GOLDEN

    def test_missing_trace_exits_2(self, capsys, tmp_path):
        assert main(["obs", str(tmp_path / "absent.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_malformed_trace_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["obs", str(bad)]) == 2
        assert "not a telemetry trace" in capsys.readouterr().err

    def test_full_trace_renders_timings(self, capsys, tmp_path):
        trace = tmp_path / "full.jsonl"
        assert main([
            "sweep", "--families", "ring", "--sizes", "8", "--seeds", "0",
            "--trace-out", str(trace), "--no-trace-deterministic",
        ]) == 0
        capsys.readouterr()
        assert main(["obs", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "(full)" in out
        assert "top spans by self time:" in out
        assert "env: " in out


class TestTraceOut:
    def sweep(self, trace, *extra):
        return main([
            "sweep", "--families", "ring", "--sizes", "8",
            "--seeds", "0", "1", "--trace-out", str(trace), *extra,
        ])

    def test_deterministic_trace_has_no_wall_or_env_lines(
        self, capsys, tmp_path
    ):
        trace = tmp_path / "t.jsonl"
        assert self.sweep(trace) == 0
        assert f"trace: {trace}" in capsys.readouterr().err
        kinds = {d["kind"] for d in obs.read_trace(trace)}
        assert kinds == {"header", "span", "counter"}

    def test_full_trace_appends_wall_and_env(self, tmp_path):
        det, full = tmp_path / "det.jsonl", tmp_path / "full.jsonl"
        assert self.sweep(det) == 0
        assert self.sweep(full, "--no-trace-deterministic") == 0
        det_lines = det.read_text(encoding="utf-8").splitlines()
        full_lines = full.read_text(encoding="utf-8").splitlines()
        # same deterministic prefix (modulo the header flag)…
        assert full_lines[1 : len(det_lines)] == det_lines[1:]
        # …plus the segregated sections
        suffix_kinds = [
            json.loads(line)["kind"] for line in full_lines[len(det_lines) :]
        ]
        assert suffix_kinds[0] == "env"
        assert set(suffix_kinds[1:]) == {"wall"}

    def test_trace_is_byte_identical_serial_vs_jobs(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert self.sweep(a) == 0
        assert self.sweep(b, "--jobs", "2") == 0
        assert a.read_bytes() == b.read_bytes()


class TestArtifactsUnchanged:
    """--trace-out must never perturb a pre-existing deterministic
    artifact: reports and bench work metrics stay byte-identical."""

    def campaign(self, out, *extra):
        return main([
            "campaign", "paper_baseline", "--tiny", "--out", str(out), *extra,
        ])

    def test_campaign_reports_identical_with_and_without_trace(
        self, capsys, tmp_path
    ):
        plain, traced = tmp_path / "plain", tmp_path / "traced"
        assert self.campaign(plain) == 0
        assert self.campaign(
            traced, "--trace-out", str(tmp_path / "t.jsonl")
        ) == 0
        capsys.readouterr()
        for name in ("report.md", "report.json"):
            assert (plain / name).read_bytes() == (traced / name).read_bytes()

    def test_bench_work_fingerprint_identical_with_and_without_trace(
        self, capsys, tmp_path
    ):
        def fingerprint(*extra):
            assert main(["bench", "--suite", "smoke", *FAST, *extra]) == 0
            out = capsys.readouterr().out
            return next(
                line for line in out.splitlines()
                if line.startswith("work fingerprint:")
            )

        plain = fingerprint()
        traced = fingerprint("--trace-out", str(tmp_path / "t.jsonl"))
        assert plain == traced

    def test_bench_trace_records_each_workload_whatever_the_repeats(
        self, tmp_path
    ):
        """One ``bench.workload`` leaf per smoke bench carries that
        bench's work; repetition is telemetry-suspended, so the trace
        is the same for any ``--repeats``."""
        from repro.perf import load_baseline, suite_benches

        def workloads(name, repeats):
            out = tmp_path / f"{name}.json"
            assert main([
                "bench", "--suite", "smoke", "--repeats", str(repeats),
                "--warmup", "0", "--out", str(out),
                "--trace-out", str(tmp_path / f"{name}.jsonl"),
            ]) == 0
            docs = obs.read_trace(tmp_path / f"{name}.jsonl")
            leaves = [
                d["attrs"] for d in docs
                if d["kind"] == "span" and d["name"] == "bench.workload"
            ]
            return leaves, load_baseline(out).work_section(), docs

        once, work, docs_once = workloads("r1", 1)
        twice, _, docs_twice = workloads("r2", 2)
        assert [leaf["bench"] for leaf in once] == [
            b.name for b in suite_benches("smoke")
        ]
        for leaf in once:
            assert {k: v for k, v in leaf.items() if k != "bench"} == work[leaf["bench"]]
        assert once == twice
        assert [d for d in docs_once if d["kind"] == "counter"] == [
            d for d in docs_twice if d["kind"] == "counter"
        ]


class TestExploreTrace:
    def test_explore_writes_a_summarizable_trace(self, capsys, tmp_path):
        trace = tmp_path / "explore.jsonl"
        assert main([
            "explore", "--sizes", "6", "--seeds", "0", "--schedulers",
            "lifo", "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["obs", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "command: explore" in out
        assert "explore.judge" in out
        assert "failures=0" in out


class TestBenchProfileSpans:
    def test_profile_prints_span_summary(self, capsys):
        assert main(["bench", "--profile", "message_codec"]) == 0
        out = capsys.readouterr().out
        assert "profile: bench 'message_codec', one profiled call" in out
        assert "trace summary — command: bench --profile (full)" in out
        assert "bench.profile" in out


@pytest.mark.parametrize("command", ["sweep", "campaign", "explore", "bench"])
def test_batch_commands_expose_trace_flags(command):
    from repro.cli import build_parser

    parser = build_parser()
    text = parser.format_help()
    assert command in text  # sanity: the subcommand exists
    sub = next(
        a for a in parser._actions
        if isinstance(a, __import__("argparse")._SubParsersAction)
    )
    help_text = sub.choices[command].format_help()
    assert "--trace-out" in help_text
    assert "--no-trace-deterministic" in help_text


class TestObsDiff:
    def sweep(self, trace, *extra):
        return main([
            "sweep", "--families", "ring", "--sizes", "8",
            "--seeds", "0", "1", "--trace-out", str(trace), *extra,
        ])

    def test_identical_traces_exit_0(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert self.sweep(a) == 0
        assert self.sweep(b, "--jobs", "2") == 0
        capsys.readouterr()
        assert main(["obs", "--diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_work_divergence_exits_1_with_deltas(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert self.sweep(a) == 0
        assert main([
            "sweep", "--families", "ring", "--sizes", "8",
            "--seeds", "0", "1", "2", "--trace-out", str(b),
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "--diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert "->" in out  # at least one counter/span delta line

    def test_cache_only_deltas_do_not_fail(self, capsys, tmp_path):
        """The CI warm-replay semantics: cold vs warm traces differ in
        cache counters but the work section is identical — exit 0."""
        cache = str(tmp_path / "cache")
        cold, warm = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
        assert self.sweep(cold, "--cache", cache) == 0
        assert self.sweep(warm, "--cache", cache) == 0
        capsys.readouterr()
        assert main(["obs", "--diff", str(cold), str(warm)]) == 0
        out = capsys.readouterr().out
        assert "cache" in out  # the deltas are printed...
        assert "DIVERGED" not in out  # ...but do not fail the diff

    def test_missing_operand_exits_2(self, capsys, tmp_path):
        assert main(["obs", "--diff", str(tmp_path / "a"), "missing"]) == 2
        assert "obs:" in capsys.readouterr().err

    def test_bare_obs_without_trace_exits_2(self, capsys):
        assert main(["obs"]) == 2
        assert "give a trace PATH or --diff" in capsys.readouterr().err


class TestInspectCommand:
    def capture(self, tmp_path, *extra):
        art = tmp_path / "causal.jsonl"
        rc = main([
            "run", "--family", "ring", "--n", "10", "--seed", "0",
            "--causal-out", str(art), *extra,
        ])
        return rc, art

    def test_run_writes_inspectable_artifact(self, capsys, tmp_path):
        rc, art = self.capture(tmp_path)
        assert rc == 0
        assert f"causal: {art}" in capsys.readouterr().err
        assert main(["inspect", str(art)]) == 0
        out = capsys.readouterr().out
        assert "causal artifact:" in out
        assert "critical path:" in out

    def test_attribution_and_critical_path_views(self, capsys, tmp_path):
        _, art = self.capture(tmp_path)
        capsys.readouterr()
        assert main([
            "inspect", str(art), "--attribution", "--critical-path",
        ]) == 0
        out = capsys.readouterr().out
        assert "section" in out and "total" in out
        assert "depth" in out

    def test_timeline_export_and_json_mode(self, capsys, tmp_path):
        _, art = self.capture(tmp_path)
        tl = tmp_path / "timeline.json"
        capsys.readouterr()
        assert main([
            "inspect", str(art), "--timeline", str(tl),
            "--critical-path", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["crit_len"] == len(
            payload["critical_path"]
        )
        doc = json.loads(tl.read_text(encoding="utf-8"))
        assert doc["otherData"]["artifact"] == "repro-causal-timeline"
        assert doc["traceEvents"]

    def test_artifact_byte_identical_across_reruns(self, capsys, tmp_path):
        _, a = self.capture(tmp_path)
        b = tmp_path / "again.jsonl"
        assert main([
            "run", "--family", "ring", "--n", "10", "--seed", "0",
            "--causal-out", str(b),
        ]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_missing_artifact_exits_2(self, capsys, tmp_path):
        assert main(["inspect", str(tmp_path / "absent.jsonl")]) == 2
        assert "inspect:" in capsys.readouterr().err

    def test_stalled_run_still_writes_artifact(self, capsys, tmp_path):
        art = tmp_path / "stalled.jsonl"
        rc = main([
            "run", "--family", "gnp_sparse", "--n", "12", "--seed", "0",
            "--fault", "crash_storm", "--causal-out", str(art),
        ])
        err = capsys.readouterr().err
        if rc == 1:  # the plan actually stalled this instance
            assert "stalled" in err
            assert main(["inspect", str(art)]) == 0
