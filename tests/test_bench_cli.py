"""CLI surface of the perf subsystem: golden ``repro bench --list``,
baseline recording, the regression gate (healthy pass vs committed
baseline, mutated fail), byte-identical work sections across execution
backends, and friendly error paths."""

import json
from pathlib import Path

import pytest

from repro._mutation import mutated
from repro.cli import main
from repro.perf import latest_baseline_path, load_baseline, work_bytes

REPO_ROOT = Path(__file__).resolve().parents[1]

#: golden output — update deliberately when the bench library changes
BENCH_LIST_GOLDEN = """\
bench suites:

  smoke   9 benches  seconds-scale regression gate (runs on every CI push)
  core   21 benches  the paper's t1-t9 experiment workloads + engine benches
  full   22 benches  every registered bench

benches (suites in brackets):

  batch_runner       micro  [smoke,core]  multi-seed batch execution of one cell group (8 seeds)
  cache_ops          micro  [smoke,core]  result cache cold put_many / warm get_many (256 records)
  campaign_tiny      sweep  [smoke,core]  tiny built-in campaign incl. fault + scheduler regimes
  echo_wave          micro  [smoke,core]  one echo spanning wave, n=96 (loop-dominated hot path)
  event_queue_ops    micro  [smoke,core]  raw-tuple heap push/pop churn (the simulator inner loop)
  executor_sweep     sweep  [core]  the executor-scaling sweep (24 cells, uniform delays)
  full_protocol      micro  [smoke,core]  full MDegST protocol on G(64, 0.1) — headline events/sec
  ghs_startup        micro  [core]  GHS spanning-tree construction, the heaviest startup
  gnp_generation     micro  [core]  numpy-vectorized connected G(n, p) generation
  group_fanout       micro  [core]  group wire codec + worker-side batched execution (8 seeds)
  message_codec      micro  [smoke,core]  message encode/decode round-trip + compiled field count
  policy_queue_ops   micro  [smoke,core]  PolicyQueue eligible-head selection under a random policy
  smoke_sweep        sweep  [smoke]  both algorithms across small sparse/geometric instances
  t1_degree_quality  micro  [core]  T1: final degree vs ground truth (claim C1)
  t2_messages        sweep  [core]  T2: message complexity vs O((k-k*)·m) (claim C2)
  t3_time            sweep  [core]  T3: causal time vs O((k-k*)·n) (claim C3; T2's records)
  t4_rounds          micro  [core]  T4: rounds vs the k-k*+1 claim, concurrent vs single (C4)
  t5_lower_bound     micro  [core]  T5: messages vs the Korach-Moran-Zaks bound on K_n (C6)
  t6_initial_tree    micro  [core]  T6: startup-construction ablation (the §4.2 remark)
  t7_message_size    sweep  [core]  T7: message-size audit, ≤4 id fields per message (C5)
  t8_vs_sequential   micro  [core]  T8: distributed vs sequential local search vs full F-R
  t9_ablation        micro  [core]  T9: concurrency mode x polish phase design ablation

run with: python -m repro bench --suite smoke [--out PATH] [--compare BASELINE --gate]
"""

#: cheap CLI timing knobs for tests — work sections are unaffected
FAST = ["--repeats", "1", "--warmup", "0"]


class TestBenchList:
    def test_list_golden_output(self, capsys):
        assert main(["bench", "--list"]) == 0
        assert capsys.readouterr().out == BENCH_LIST_GOLDEN

    def test_suite_names_validated_eagerly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--suite", "nightly"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nightly'" in err
        assert "smoke" in err  # valid choices are named


class TestBenchRun:
    def test_out_writes_a_loadable_baseline(self, capsys, tmp_path):
        out = tmp_path / "BENCH_9999.json"
        rc = main(["bench", "--suite", "smoke", "--out", str(out), *FAST,
                   "--note", "test point"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "bench suite 'smoke'" in captured.out
        assert "work fingerprint:" in captured.out
        assert str(out) in captured.err
        base = load_baseline(out)
        assert base.suite == "smoke"
        assert base.notes == "test point"
        assert len(base.results) == 9
        assert base.result("full_protocol").derived["events_per_sec"] > 0

    def test_work_section_byte_identical_serial_jobs2_warm_cache(
        self, capsys, tmp_path
    ):
        """The acceptance contract: serial, ``--jobs 2`` and a warm-cache
        run all record the identical work section."""
        outs = []
        runs = [
            ["--out", str(tmp_path / "serial.json")],
            ["--jobs", "2", "--out", str(tmp_path / "jobs2.json")],
            ["--cache", str(tmp_path / "cache"),
             "--out", str(tmp_path / "cold.json")],
            ["--cache", str(tmp_path / "cache"),
             "--out", str(tmp_path / "warm.json")],
        ]
        for extra in runs:
            assert main(["bench", "--suite", "smoke", *FAST, *extra]) == 0
            capsys.readouterr()
            outs.append(work_bytes(load_baseline(extra[-1])))
        assert outs[0] == outs[1] == outs[2] == outs[3]

    def test_committed_baseline_gate_passes_on_healthy_code(self, capsys):
        """`repro bench --gate` against the committed trajectory point:
        work metrics must match exactly (time is gated separately — here
        forced off so the assertion is machine- and load-independent)."""
        committed = latest_baseline_path(REPO_ROOT)
        assert committed is not None, "a trajectory point must be committed"
        rc = main([
            "bench", "--suite", "smoke", *FAST,
            "--compare", str(committed), "--gate", "--gate-time", "off",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "gate verdict: PASS" in out
        assert "work metrics exact" in out

    def test_slow_event_loop_mutation_trips_the_gate(self, capsys, tmp_path):
        """The regression-sensitivity self-test, CLI edition: record a
        healthy baseline, re-run under the mutation, gate must fail."""
        fresh = tmp_path / "BENCH_healthy.json"
        assert main(["bench", "--suite", "smoke", "--out", str(fresh)]) == 0
        capsys.readouterr()
        with mutated("slow_event_loop"):
            rc = main([
                "bench", "--suite", "smoke",
                "--compare", str(fresh), "--gate", "--gate-time", "on",
            ])
        out = capsys.readouterr().out
        assert rc == 1, out
        assert "gate verdict: FAIL" in out
        assert "exceeds the 20% tolerance" in out
        # the mutation burns time but never changes behaviour: every
        # work verdict stays exact even while the time gate trips
        assert "work." not in "".join(
            line for line in out.splitlines() if "[fail]" in line
        )

    def test_gate_defaults_to_latest_baseline_in_cwd(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        rc = main(["bench", "--suite", "smoke", *FAST, "--gate"])
        assert rc == 2
        assert "no BENCH_*.json found" in capsys.readouterr().err
        assert main(["bench", "--suite", "smoke", *FAST,
                     "--out", "BENCH_0001.json"]) == 0
        capsys.readouterr()
        rc = main(["bench", "--suite", "smoke", *FAST,
                   "--gate", "--gate-time", "off"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "BENCH_0001.json" in out

    def test_gate_with_out_never_compares_the_run_to_itself(
        self, capsys, tmp_path, monkeypatch
    ):
        """--out into the cwd plus --gate: the default baseline must be
        the *previous* trajectory point, not the file just written."""
        monkeypatch.chdir(tmp_path)
        rc = main(["bench", "--suite", "smoke", *FAST,
                   "--out", "BENCH_0009.json", "--gate"])
        assert rc == 2  # fails fast: no prior baseline to gate against
        assert "no BENCH_*.json found" in capsys.readouterr().err
        assert not (tmp_path / "BENCH_0009.json").exists()
        assert main(["bench", "--suite", "smoke", *FAST,
                     "--out", "BENCH_0001.json"]) == 0
        capsys.readouterr()
        rc = main(["bench", "--suite", "smoke", *FAST,
                   "--out", "BENCH_0002.json", "--gate", "--gate-time", "off"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "baseline: BENCH_0001.json" in out  # not BENCH_0002

    def test_negative_tolerance_fails_fast(self, capsys):
        rc = main(["bench", "--suite", "smoke", "--tolerance", "-0.5",
                   "--compare", "whatever.json"])
        assert rc == 2
        assert "tolerance must be >= 0" in capsys.readouterr().err


class TestBenchProfile:
    def test_profile_prints_hot_functions(self, capsys):
        rc = main(["bench", "--profile", "message_codec", "--profile-lines", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile: bench 'message_codec' (micro)" in out
        assert "cumulative" in out  # the pstats table header

    def test_profile_unknown_bench_is_friendly(self, capsys):
        rc = main(["bench", "--profile", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown bench 'nope'" in err
        assert "full_protocol" in err  # registered names are listed


class TestBenchErrors:
    def test_missing_compare_file_is_friendly(self, capsys, tmp_path):
        rc = main(["bench", "--suite", "smoke", *FAST,
                   "--compare", str(tmp_path / "gone.json")])
        assert rc == 2
        assert "no such baseline" in capsys.readouterr().err

    def test_suite_mismatch_is_friendly(self, capsys, tmp_path):
        committed = json.loads((REPO_ROOT / "BENCH_0005.json").read_text())
        committed["suite"] = "core"
        wrong = tmp_path / "BENCH_core.json"
        wrong.write_text(json.dumps(committed))
        rc = main(["bench", "--suite", "smoke", *FAST,
                   "--compare", str(wrong)])
        assert rc == 2
        assert "records suite 'core'" in capsys.readouterr().err
