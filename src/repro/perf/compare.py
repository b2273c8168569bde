"""Two verdicts: exact work against a file, paired speed against a revision.

* **work** (:func:`compare_baselines`): events, messages, rounds, bits,
  … are pure functions of the code — any difference is a real
  behavioural change (or lost determinism), so a fresh run is gated
  **exactly** against a ``BENCH_*.json`` file, in both directions, on
  any machine. An intended change (a protocol improvement that sends
  fewer messages) fails the gate too: that is the point — refresh the
  committed baseline in the same PR, which makes the trajectory file
  record the improvement.
* **speed** (:func:`compare_pairs`): wall-clock carries machine and load
  noise, so a run against a recorded file says nothing about speed.
  Speed is judged only between two revisions timed in alternating pairs
  on one machine (:func:`repro.perf.runner.run_pairs`), bench by bench,
  by :func:`repro.perf.stats.paired_verdict`. The timing sections of
  ``BENCH_*.json`` files are history and are never gated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..analysis.tables import render_table
from .baseline import Baseline, work_bytes
from .stats import PairedVerdict, paired_verdict

__all__ = [
    "Verdict",
    "Comparison",
    "compare_baselines",
    "PairedComparison",
    "compare_pairs",
]

_OK = "ok"
_FAIL = "fail"
_SKIP = "skip"


@dataclass(frozen=True)
class Verdict:
    """One metric's comparison outcome."""

    bench: str
    metric: str  # "work.<name>" or "presence"
    kind: str  # "work" | "presence"
    status: str  # "ok" | "fail" | "skip"
    detail: str
    baseline: float | int | None = None
    current: float | int | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "bench": self.bench,
            "metric": self.metric,
            "kind": self.kind,
            "status": self.status,
            "detail": self.detail,
            "baseline": self.baseline,
            "current": self.current,
        }


@dataclass(frozen=True)
class Comparison:
    """All verdicts of one baseline-vs-run comparison."""

    verdicts: tuple[Verdict, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> tuple[Verdict, ...]:
        return tuple(v for v in self.verdicts if v.status == _FAIL)

    def render(self) -> str:
        """Human-readable verdict list.

        Failures and skips are listed individually; passing work
        verdicts collapse to one line per bench (a core-suite run has
        ~150 of them and they all say "equal").
        """
        lines = ["gate: work metrics exact (speed is judged against a revision)"]
        ok_work: dict[str, int] = {}
        rest = []
        for v in self.verdicts:
            if v.status == _OK and v.kind == "work":
                ok_work[v.bench] = ok_work.get(v.bench, 0) + 1
            else:
                rest.append(v)
        ordered = sorted(
            rest,
            key=lambda v: ({_FAIL: 0, _OK: 1, _SKIP: 2}[v.status], v.bench, v.metric),
        )
        for v in ordered:
            lines.append(f"  [{v.status:>4}] {v.bench}.{v.metric}: {v.detail}")
        for bench in sorted(ok_work):
            lines.append(
                f"  [  ok] {bench}.work: {ok_work[bench]} metric(s) exact"
            )
        verdict = "PASS" if self.ok else f"FAIL ({len(self.failures)} verdict(s))"
        lines.append(f"gate verdict: {verdict}")
        return "\n".join(lines)


def _work_verdicts(name: str, base: dict[str, int], cur: dict[str, int]) -> list[Verdict]:
    out = []
    for metric in sorted(set(base) | set(cur)):
        b, c = base.get(metric), cur.get(metric)
        if b is None or c is None:
            out.append(
                Verdict(
                    name, f"work.{metric}", "work", _FAIL,
                    f"metric {'appeared' if b is None else 'disappeared'} "
                    f"(baseline={b!r}, current={c!r}); work sections must "
                    "match key-for-key",
                    b, c,
                )
            )
        elif b != c:
            out.append(
                Verdict(
                    name, f"work.{metric}", "work", _FAIL,
                    f"{b} -> {c} (work metrics are deterministic — a "
                    "difference is a behaviour change; refresh the "
                    "baseline if it is intended)",
                    b, c,
                )
            )
        else:
            out.append(
                Verdict(name, f"work.{metric}", "work", _OK, f"= {b}", b, c)
            )
    return out


def compare_baselines(baseline: Baseline, current: Baseline) -> Comparison:
    """Compare *current*'s work section against *baseline*'s.

    Benches present only in *current* are informational (the baseline
    predates them); benches missing from *current* fail — a suite must
    never silently shrink.
    """
    verdicts: list[Verdict] = []
    for base_result in baseline.results:
        cur_result = current.result(base_result.name)
        if cur_result is None:
            verdicts.append(
                Verdict(
                    base_result.name, "presence", "presence", _FAIL,
                    "bench missing from the current run (suites must "
                    "never silently shrink)",
                )
            )
            continue
        verdicts.extend(
            _work_verdicts(base_result.name, base_result.work, cur_result.work)
        )
    known = set(baseline.bench_names())
    for cur_result in current.results:
        if cur_result.name not in known:
            verdicts.append(
                Verdict(
                    cur_result.name, "presence", "presence", _SKIP,
                    "new bench (absent from the baseline); refresh the "
                    "baseline to start tracking it",
                )
            )
    return Comparison(verdicts=tuple(verdicts))


@dataclass(frozen=True)
class PairedComparison:
    """Each bench's speed, side B judged against side A over paired runs."""

    rows: tuple[tuple[str, PairedVerdict], ...]
    #: benches that ran on one side only, so have no pairs
    unpaired: tuple[str, ...]
    #: every run of both sides recorded the same work section
    work_equal: bool

    @property
    def slower(self) -> tuple[str, ...]:
        return tuple(name for name, v in self.rows if v.verdict == "slower")

    def render(self) -> str:
        table = render_table(
            ["bench", "A [ms]", "B [ms]", "B/A", "B won", "A IQR [ms]", "verdict"],
            [
                (
                    name,
                    f"{v.a_median * 1e3:.3f}",
                    f"{v.b_median * 1e3:.3f}",
                    f"{v.ratio:.3f}",
                    f"{v.b_wins}/{v.pairs}",
                    f"{v.spread * 1e3:.3f}",
                    v.verdict,
                )
                for name, v in self.rows
            ],
            title="paired speed: median time.best per side",
        )
        lines = [table]
        if self.unpaired:
            lines.append(f"not paired (on one side only): {', '.join(self.unpaired)}")
        lines.append(
            f"work sections: {'equal' if self.work_equal else 'differ'} "
            "across both sides"
        )
        return "\n".join(lines)


def compare_pairs(
    a_runs: Sequence[Baseline], b_runs: Sequence[Baseline]
) -> PairedComparison:
    """Judge each bench of *b_runs* against *a_runs*; run *i* of each
    side is pair *i*."""
    a_names, b_names = a_runs[0].bench_names(), b_runs[0].bench_names()

    def best(runs: Sequence[Baseline], name: str) -> list[float]:
        return [run.result(name).timing["best"] for run in runs]

    return PairedComparison(
        rows=tuple(
            (name, paired_verdict(best(a_runs, name), best(b_runs, name)))
            for name in a_names
            if name in b_names
        ),
        unpaired=tuple(sorted(set(a_names) ^ set(b_names))),
        work_equal=len({work_bytes(run) for run in (*a_runs, *b_runs)}) == 1,
    )
