"""Suite runner: each bench timed once, its work read off the timing.

:func:`run_suite` measures every bench of a suite in-process with
warm-up + min-of-k (:mod:`repro.perf.timing`): it builds the bench's
kernel, times the closure, and requires every call (warm-ups included)
to return the same work dict. That dict is the bench's work section, so
no second pass computes it; a cell workload's kernel runs its cells
serially, and a cache never serves a timing number.

:func:`run_pairs` is the speed measurement: the suite at a git revision
(side A, in a temporary worktree) and in this checkout (side B), each
run a fresh ``python -m repro bench`` subprocess, :data:`PAIRS` times
in alternating order.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Mapping

from .._mutation import MUTATION_ENV
from ..errors import AnalysisError
from ..obs import current as obs
from ..obs import suspended
from .baseline import (
    Baseline,
    BenchResult,
    git_revision,
    load_baseline,
    machine_fingerprint,
)
from .library import suite_benches
from .spec import BenchSpec
from .timing import TimingSample, time_callable

__all__ = ["run_suite", "PAIRS", "resolve_revision", "run_pairs"]

#: Alternating pairs per revision comparison: the speed rule needs at
#: least ten, and a verdict needs nine of them won.
PAIRS = 10


def _timing_payload(sample: TimingSample) -> dict[str, Any]:
    return {
        "warmup": sample.warmup,
        "repeats": sample.repeats,
        "seconds": list(sample.seconds),
        "best": sample.best,
        "median": sample.median,
        "iqr": sample.iqr,
    }


def _derived(work: dict[str, int], best: float) -> dict[str, float]:
    out: dict[str, float] = {}
    if best > 0:
        for metric, rate in (
            ("events", "events_per_sec"),
            ("messages", "messages_per_sec"),
            ("ops", "ops_per_sec"),
        ):
            if work.get(metric, 0) > 0:
                out[rate] = work[metric] / best
    return out


def _measure(
    bench: BenchSpec, *, repeats: int | None, warmup: int | None
) -> tuple[dict[str, Any], dict[str, int]]:
    """Set *bench* up, time its kernel, return the timing payload and
    the work every call returned."""
    sample, works = time_callable(
        bench.kernel(),
        repeats=repeats if repeats is not None else bench.repeats,
        warmup=warmup if warmup is not None else bench.warmup,
    )
    first = works[0]
    for other in works[1:]:
        if other != first:
            raise AnalysisError(
                f"bench {bench.name!r} is not work-deterministic: "
                f"{first!r} != {other!r} across repeats"
            )
    return _timing_payload(sample), first


def run_suite(
    suite: str,
    *,
    repeats: int | None = None,
    warmup: int | None = None,
    notes: str = "",
) -> Baseline:
    """Run every bench of *suite* into a fresh :class:`Baseline`.

    *repeats* / *warmup* override each spec's defaults (quick local
    iterations, CI smoke).
    """
    benches = suite_benches(suite)
    if not benches:
        raise AnalysisError(f"suite {suite!r} has no registered benches")

    t = obs()
    results = []
    with t.span("bench.suite", suite=suite, benches=len(benches)):
        for bench in benches:
            # telemetry is masked while the bench runs: min-of-k
            # repetition would otherwise scale every exec counter by the
            # repeat count; the leaf below records what the bench did
            with suspended():
                timing, work = _measure(bench, repeats=repeats, warmup=warmup)
            t.leaf("bench.workload", bench=bench.name, **work)
            results.append(
                BenchResult(
                    name=bench.name,
                    work=work,
                    timing=timing,
                    derived=_derived(work, timing["best"]),
                )
            )
    return Baseline(
        suite=suite,
        results=tuple(results),
        machine=machine_fingerprint(),
        git_rev=git_revision(),
        notes=notes,
    )


def _git(*args: str, cwd: str | Path = ".") -> str:
    try:
        out = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = (getattr(exc, "stderr", None) or str(exc)).strip()
        raise AnalysisError(f"git {args[0]} failed: {detail}") from None
    return out.stdout.strip()


def resolve_revision(rev: str) -> str | None:
    """The commit *rev* names in the git checkout holding the cwd, or
    ``None`` (no such revision, or the cwd is not in a checkout)."""
    try:
        return _git(
            "rev-parse", "--verify", "--quiet", "--end-of-options", f"{rev}^{{commit}}"
        )
    except AnalysisError:
        return None


def run_side(
    root: Path,
    out: Path,
    *,
    suite: str,
    repeats: int | None,
    warmup: int | None,
    env: Mapping[str, str],
) -> None:
    """One ``repro bench --suite SUITE --out OUT`` of the checkout at
    *root*, in a fresh interpreter importing only ``root/src``."""
    cmd = [sys.executable, "-m", "repro", "bench", "--suite", suite, "--out", str(out)]
    if repeats is not None:
        cmd += ["--repeats", str(repeats)]
    if warmup is not None:
        cmd += ["--warmup", str(warmup)]
    proc = subprocess.run(
        cmd,
        cwd=root,
        env={**env, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise AnalysisError(
            f"bench run of {root} exited {proc.returncode}: {tail[0]}"
        )


def run_pairs(
    rev: str,
    suite: str,
    *,
    repeats: int | None = None,
    warmup: int | None = None,
) -> tuple[list[Baseline], list[Baseline]]:
    """Time *suite* at commit *rev* (side A) against the checkout holding
    the cwd (side B): :data:`PAIRS` pairs, the first side alternating.

    Side A runs in a detached worktree, removed again even when a run
    fails, and without ``REPRO_MUTATIONS`` in its environment; side B
    inherits the caller's, so a planted slowdown runs against the
    healthy code. Returns each side's runs in pair order.
    """
    here = Path(_git("rev-parse", "--show-toplevel"))
    tmp = Path(tempfile.mkdtemp(prefix="repro-pairs-"))
    tree = tmp / "a"
    env_b = dict(os.environ)
    env_a = {k: v for k, v in env_b.items() if k != MUTATION_ENV}
    sides = {"a": (tree, env_a), "b": (here, env_b)}
    runs: dict[str, list[Baseline]] = {"a": [], "b": []}
    try:
        _git("worktree", "add", "--detach", str(tree), rev, cwd=here)
        for i in range(PAIRS):
            for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
                root, env = sides[side]
                out = tmp / f"{side}{i}.json"
                run_side(
                    root, out, suite=suite, repeats=repeats, warmup=warmup, env=env
                )
                runs[side].append(load_baseline(out))
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(tree)],
            cwd=here,
            capture_output=True,
        )
        shutil.rmtree(tmp, ignore_errors=True)
    return runs["a"], runs["b"]
