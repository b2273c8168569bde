"""Regression verdicts: compare a fresh run against a baseline.

Two metric classes, two gates:

* **work metrics** (events, messages, rounds, bits, …) are pure
  functions of the code — any difference is a real behavioural change
  (or lost determinism), so they are gated **exactly**, in both
  directions. An intended change (a protocol improvement that sends
  fewer messages) fails the gate too: that is the point — refresh the
  committed baseline in the same PR, which makes the trajectory file
  record the improvement.
* **time metrics** (min-of-k seconds) carry machine noise, so they are
  gated with a relative tolerance — and only when both baselines carry
  the same machine fingerprint (or the caller forces gating): comparing
  wall-clock across different machines is meaningless, while work
  metrics compare anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .baseline import Baseline

__all__ = ["TIME_TOLERANCE", "Verdict", "Comparison", "compare_baselines"]

#: Relative tolerance of the time gate: a bench fails when its min-of-k
#: time exceeds the baseline's by more than this fraction. The
#: ``slow_event_loop`` mutation self-test regresses the loop-dominated
#: benches by ~1.8x, so the gate keeps a wide margin on both sides.
TIME_TOLERANCE = 0.20

_OK = "ok"
_FAIL = "fail"
_SKIP = "skip"


@dataclass(frozen=True)
class Verdict:
    """One metric's comparison outcome."""

    bench: str
    metric: str  # "work.<name>", "time.best", or "presence"
    kind: str  # "work" | "time" | "presence"
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
    time_gated: bool

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
        lines = [
            f"gate: work metrics exact; time within {TIME_TOLERANCE:.0%} "
            f"({'gated' if self.time_gated else 'not gated — machine mismatch'})"
        ]
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


def _time_verdict(
    name: str,
    base: dict[str, Any],
    cur: dict[str, Any],
    *,
    gated: bool,
) -> Verdict:
    b, c = base.get("best"), cur.get("best")
    if not isinstance(b, (int, float)) or not isinstance(c, (int, float)) or b <= 0:
        return Verdict(
            name, "time.best", "time", _FAIL if gated else _SKIP,
            f"unusable timing (baseline={b!r}, current={c!r})", b, c,
        )
    ratio = c / b
    if not gated:
        return Verdict(
            name, "time.best", "time", _SKIP,
            f"{b:.4g}s -> {c:.4g}s ({ratio - 1.0:+.0%} vs baseline, not gated)",
            b, c,
        )
    if ratio > 1.0 + TIME_TOLERANCE:
        return Verdict(
            name, "time.best", "time", _FAIL,
            f"{b:.4g}s -> {c:.4g}s ({ratio - 1.0:+.0%} exceeds the "
            f"{TIME_TOLERANCE:.0%} tolerance)",
            b, c,
        )
    note = "improved" if ratio < 1.0 else "within tolerance"
    return Verdict(
        name, "time.best", "time", _OK,
        f"{b:.4g}s -> {c:.4g}s ({ratio - 1.0:+.0%}, {note})", b, c,
    )


def compare_baselines(
    baseline: Baseline,
    current: Baseline,
    *,
    gate_time: bool | None = None,
) -> Comparison:
    """Compare *current* against *baseline*.

    ``gate_time=None`` (auto) gates time iff the machine fingerprints
    match; ``True``/``False`` force it either way. Benches present only
    in *current* are informational (the baseline predates them); benches
    missing from *current* fail — a suite must never silently shrink.
    """
    gated = (
        gate_time
        if gate_time is not None
        else baseline.machine == current.machine
    )
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
        verdicts.append(
            _time_verdict(
                base_result.name,
                base_result.timing,
                cur_result.timing,
                gated=gated,
            )
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
    return Comparison(verdicts=tuple(verdicts), time_gated=gated)
