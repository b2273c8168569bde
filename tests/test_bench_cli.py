"""CLI surface of the perf subsystem: golden ``repro bench --list``,
baseline recording, the exact work gate against the committed baseline,
the paired speed verdict against a git revision, and friendly error
paths."""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro._mutation import MUTATION_ENV
from repro.cli import main
from repro.errors import AnalysisError
from repro.perf import (
    PAIRS,
    Baseline,
    BenchResult,
    latest_baseline_path,
    load_baseline,
    save_baseline,
)
from repro.perf import runner as perf_runner

REPO_ROOT = Path(__file__).resolve().parents[1]

#: golden output — update deliberately when the bench library changes
BENCH_LIST_GOLDEN = """\
bench suites:

  smoke   9 benches  seconds-scale regression gate (runs on every CI push)
  core   21 benches  the paper's t1-t9 experiment workloads + engine benches
  full   22 benches  every registered bench

benches (suites in brackets):

  batch_runner       [smoke,core]  multi-seed batch execution of one cell group (8 seeds)
  cache_ops          [smoke,core]  result cache cold put_many / warm get_many (256 records)
  campaign_tiny      [smoke,core]  tiny built-in campaign incl. fault + scheduler regimes
  echo_wave          [smoke,core]  one echo spanning wave, n=96 (loop-dominated hot path)
  event_queue_ops    [smoke,core]  raw-tuple heap push/pop churn (the simulator inner loop)
  executor_sweep     [core]  the executor-scaling sweep (24 cells, uniform delays)
  full_protocol      [smoke,core]  full MDegST protocol on G(64, 0.1) — headline events/sec
  ghs_startup        [core]  GHS spanning-tree construction, the heaviest startup
  gnp_generation     [core]  numpy-vectorized connected G(n, p) generation
  group_fanout       [core]  group wire codec + worker-side batched execution (8 seeds)
  message_codec      [smoke,core]  message encode/decode round-trip + compiled field count
  policy_queue_ops   [smoke,core]  PolicyQueue eligible-head selection under a random policy
  probe_path         [core]  fuzz-shaped probes: replay x churn, captured, n 6-8
  smoke_sweep        [smoke]  both algorithms across small sparse/geometric instances
  t1_degree_quality  [core]  T1: final degree vs ground truth (claim C1)
  t2_messages        [core]  T2: message complexity vs O((k-k*)·m) (claim C2)
  t4_rounds          [core]  T4: rounds vs the k-k*+1 claim, concurrent vs single (C4)
  t5_lower_bound     [core]  T5: messages vs the Korach-Moran-Zaks bound on K_n (C6)
  t6_initial_tree    [core]  T6: startup-construction ablation (the §4.2 remark)
  t7_message_size    [core]  T7: message-size audit, ≤4 id fields per message (C5)
  t8_vs_sequential   [core]  T8: distributed vs sequential local search vs full F-R
  t9_ablation        [core]  T9: concurrency mode x polish phase design ablation

run with: python -m repro bench --suite smoke [--out PATH] [--compare BASELINE|REV --gate]
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

    def test_committed_baseline_gate_passes_on_healthy_code(self, capsys):
        """`repro bench --gate` against the committed trajectory point:
        work metrics must match exactly, on any machine and under any
        load (a file verdict reads no timing)."""
        committed = latest_baseline_path(REPO_ROOT)
        assert committed is not None, "a trajectory point must be committed"
        rc = main([
            "bench", "--suite", "smoke", *FAST,
            "--compare", str(committed), "--gate",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "gate verdict: PASS" in out
        assert "work metrics exact" in out

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
        rc = main(["bench", "--suite", "smoke", *FAST, "--gate"])
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
                   "--out", "BENCH_0002.json", "--gate"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "baseline: BENCH_0001.json" in out  # not BENCH_0002


class TestBenchProfile:
    def test_profile_prints_hot_functions(self, capsys):
        rc = main(["bench", "--profile", "message_codec", "--profile-lines", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile: bench 'message_codec', one profiled call" in out
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


def _git(*args, cwd):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=cwd, capture_output=True, text=True, check=True,
    ).stdout


def _worktrees(repo):
    return _git("worktree", "list", cwd=repo).splitlines()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestBenchRevision:
    """``--compare REV`` with the side runner replaced by a fake that
    writes BENCH files: the pair loop, the environment each side gets,
    the gate and the worktree's lifetime."""

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        repo = tmp_path / "repo"
        repo.mkdir()
        _git("init", "-q", cwd=repo)
        (repo / "README").write_text("x\n")
        _git("add", "README", cwd=repo)
        _git("commit", "-q", "-m", "init", cwd=repo)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        monkeypatch.chdir(repo)
        return repo

    @staticmethod
    def fake_runs(monkeypatch, repo, *, b_factor, fail_at=None):
        """Side A times 1.0 + i/100 s in pair i, side B *b_factor* that."""
        calls = []
        here = repo.resolve()

        def run_side(root, out, *, suite, repeats, warmup, env):
            side = "b" if Path(root).resolve() == here else "a"
            calls.append((side, env.get(MUTATION_ENV), len(_worktrees(repo))))
            if len(calls) == fail_at:
                raise AnalysisError("side run exited 1")
            pair = sum(1 for s, _, _ in calls if s == side) - 1
            best = (1.0 + pair / 100) * (b_factor if side == "b" else 1.0)
            result = BenchResult(
                name="full_protocol",
                work={"events": 7}, timing={"best": best},
            )
            save_baseline(
                Baseline(suite=suite, results=(result,), machine={}),
                out,
            )

        monkeypatch.setattr(perf_runner, "run_side", run_side)
        return calls

    def test_pairs_alternate_and_only_side_b_keeps_the_mutation(
        self, repo, monkeypatch, capsys
    ):
        monkeypatch.setenv(MUTATION_ENV, "slow_event_loop")
        calls = self.fake_runs(monkeypatch, repo, b_factor=1.5)
        rc = main(["bench", "--compare", "HEAD", "--gate"])
        out = capsys.readouterr().out
        assert rc == 1, out
        sides = [side for side, _, _ in calls]
        assert sides == ["a", "b", "b", "a"] * (PAIRS // 2)
        assert {(side, env) for side, env, _ in calls} == {
            ("a", None), ("b", "slow_event_loop"),
        }
        assert {trees for _, _, trees in calls} == {2}  # the worktree ran A
        row = next(line for line in out.splitlines() if "full_protocol" in line)
        assert f" 1.500  0/{PAIRS} " in row
        assert row.endswith("slower")
        assert "work sections: equal" in out
        assert len(_worktrees(repo)) == 1

    def test_parity_is_unresolved_and_passes_the_gate(
        self, repo, monkeypatch, capsys
    ):
        self.fake_runs(monkeypatch, repo, b_factor=1.0)
        assert main(["bench", "--compare", "HEAD", "--gate"]) == 0
        out = capsys.readouterr().out
        assert "unresolved" in out and "slower" not in out
        assert len(_worktrees(repo)) == 1

    def test_a_failed_run_leaves_no_worktree(self, repo, monkeypatch, capsys):
        calls = self.fake_runs(monkeypatch, repo, b_factor=1.0, fail_at=3)
        assert main(["bench", "--compare", "HEAD", "--gate"]) == 2
        assert "bench: side run exited 1" in capsys.readouterr().err
        assert len(calls) == 3
        assert len(_worktrees(repo)) == 1

    def test_unknown_value_and_non_git_cwd_exit_2(
        self, repo, tmp_path, monkeypatch, capsys
    ):
        calls = self.fake_runs(monkeypatch, repo, b_factor=1.0)
        assert main(["bench", "--compare", "no-such-rev"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bench: ") and "no such baseline file" in err
        assert "no git revision" in err
        outside = tmp_path / "outside"
        outside.mkdir()
        monkeypatch.chdir(outside)
        assert main(["bench", "--compare", "HEAD"]) == 2
        assert "no git revision" in capsys.readouterr().err
        assert calls == []

    def test_out_and_note_are_rejected(self, repo, monkeypatch, capsys):
        """The paired runs record no baseline, so --out and --note would
        be dropped silently: each is a usage error before any run."""
        calls = self.fake_runs(monkeypatch, repo, b_factor=1.0)
        for extra, named in (
            (["--out", "BENCH_9999.json"], "--out"),
            (["--note", "why"], "--note"),
            (["--out", "x.json", "--note", "why"], "--out and --note"),
        ):
            assert main(["bench", "--compare", "HEAD", *extra]) == 2
            captured = capsys.readouterr()
            err = captured.err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith(f"bench: {named} ")
            assert captured.out == ""
        assert calls == []
        assert not (repo / "BENCH_9999.json").exists()
        assert len(_worktrees(repo)) == 1
