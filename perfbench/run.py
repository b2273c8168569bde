#!/usr/bin/env python3
"""Benchmark driver for the MDegST reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_unit --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics: it repeats timed passes through the
program's public entry points until ``--seconds`` have passed (at least
three passes, whose work digests must agree), each after timing the
workload's set-up in two fresh interpreters, then checks a warm replay
from the disk cache. ``--trace 1`` ignores ``--seconds``: it runs one
untraced pass, re-drives the same cells stage by stage (``ledger.py``),
times warm replays and prints the per-layer ledger. Either way the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it
repeat every metric by name and unit, the work digest, the failure
fraction and the fuzz findings. See ``README.md`` for what each metric
and workload means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sweep_unit", "campaign_cached", "fuzz_churn")
DEFAULT_SEED = 1
SETUP_PER_PASS = 2  # set-up probes before each pass, so they span the run
MIN_PASSES = 3  # each unit's time is its best over at least this many passes

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "msgs_per_cell": "count",
    "causal_time_per_cell": "count",
    "k_final_mean": "count",
    "coverage_buckets": "count",
}

PER_LAYER = {
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.messages": "count",
    "sim.ns_per_event.unit": "ns",
    "sim.ns_per_event.random_delay": "ns",
    "sim.ns_per_event.policy": "ns",
    "sim.ns_per_event.captured": "ns",
    "graphs.make_family_s": "s",
    "spanning.build_spanning_tree_s": "s",
    "spanning.startup_messages": "count",
    "algorithms.build_s": "s",
    "mdst.finalize_s": "s",
    "analysis.record_s": "s",
    "analysis.batch.lockstep_speedup": "ratio",
    "analysis.cache.put_many_s": "s",
    "analysis.cache.get_many_disk_s": "s",
    "analysis.cache.get_many_memory_s": "s",
    "analysis.cache.hit_ratio": "ratio",
    "analysis.cache.segment_bytes": "B",
    "analysis.executor.parallel_efficiency": "ratio",
    "analysis.executor.groups": "count",
    "scenarios.write_report_s": "s",
    "exploration.probe_s": "s",
    "exploration.check_cell_s": "s",
    "exploration.shrink_s": "s",
    "exploration.mutate_s": "s",
    "exploration.admit_ratio": "ratio",
    "exploration.exact_solves": "count",
    "sim.provenance.capture_overhead": "ratio",
    "obs.telemetry_overhead": "ratio",
    "cell.p50_ms": "ms",
    "cell.p99_ms": "ms",
    "cell.samples": "count",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
    "warm_cells_per_s": "1/s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up timing probe (a fresh interpreter per probe)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_probe(name: str, seed: int, workdir: Path) -> None:
    """What a run does before its first cell is dispatched: import the
    program and its registries, build and validate the workload's specs,
    flatten its cells, create the cache directory. Then report ready."""
    from repro.analysis import ResultCache
    from workloads import WORKLOADS

    WORKLOADS[name](seed)
    if name == "campaign_cached":
        ResultCache(workdir)
    print("ready", flush=True)


def measure_setup(name: str, seed: int, workdir: Path) -> float:
    """Wall time from spawning a fresh interpreter to its first-cell-ready
    line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--setup-probe", str(workdir),
    ]
    t = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def high_percentile(values: list[float]) -> tuple[float, float]:
    """(p, value): p99, or the highest percentile with at least ten
    samples beyond it when there are fewer than a thousand samples."""
    ordered = sorted(values)
    n = len(ordered)
    p = min(0.99, max(0.5, 1.0 - 10.0 / n))
    return p, ordered[min(n - 1, int(p * n))]


def timed_run(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    first, unit_s, digests, problems, setup_s = None, [], set(), [], []
    start = time.perf_counter()
    # at least three passes; then another only while it fits in *seconds*
    while len(unit_s) < MIN_PASSES or (time.perf_counter() - start) * (
        len(unit_s) + 1
    ) / len(unit_s) <= seconds:
        setup_s += [
            measure_setup(name, seed, workdir / f"setup-{len(setup_s)}")
            for _ in range(SETUP_PER_PASS)
        ]
        # no pass pays for collecting an earlier pass's garbage, and only
        # the first pass's records stay alive
        gc.collect()
        pas = workload.run_pass(workdir)
        unit_s.append(pas.unit_s)
        digests.add(pas.digest)
        problems += pas.problems
        first = first or pas
        del pas
    if len(digests) != 1:
        problems.append("work digest differs between passes")
    # warm replay is checked in every run but timed only in the traced
    # run: memory-bound, it moves with the host more than any bound allows
    workload.warm_replay(first, workdir / "warm")
    # each unit at its best over the passes: the host's short stalls only
    # ever add time, never remove it
    best = [min(times) for times in zip(*unit_s)]
    probe_units = first.probe_units or [True] * len(best)
    wall = sum(t for t, counted in zip(best, probe_units) if counted)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "cells_per_s": first.cells / wall,
        "events_per_s": sum(r.events for r in first.records) / wall,
        "peak_rss_mb": peak_rss_mb(),
        **first.exact_metrics(),
    }
    return {
        "first": first,
        "unit_s": unit_s,
        "problems": problems,
        "metrics": metrics,
        "units": END_TO_END,
    }


def _timed(fn, *args) -> float:
    t = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t


def traced_run(name: str, seed: int, workdir: Path) -> dict:
    from ledger import LOOPS, Ledger, staged_cell, staged_fuzz
    from repro.analysis import ResultCache
    from repro.analysis.batch import CellTemplate, group_cells
    from repro.analysis.executor import ParallelExecutor, SerialExecutor
    from repro.exploration import PROBE_CACHE_SALT
    from repro.obs import capture
    from repro.scenarios.report import write_report
    from workloads import JOBS, WORKLOADS, record_bytes

    workload = WORKLOADS[name](seed)
    gc.collect()
    pas = workload.run_pass(workdir)
    problems = list(pas.problems)
    ledger = Ledger()
    m: dict[str, float] = {}

    # the traced pass: the same cells, stage by stage
    t = time.perf_counter()
    if name == "fuzz_churn":
        staged = [staged_fuzz(spec, ledger) for spec in workload.specs]
        traced_wall = time.perf_counter() - t
        traced_records = [r for s in staged for r in s["records"]]
        for s, report in zip(staged, pas.reports):
            if (s["coverage_digest"], s["corpus_digest"]) != (
                report.coverage_digest, report.corpus_digest
            ):
                problems.append("traced fuzz campaign reached another corpus")
        if [f for s in staged for f in s["findings"]] != pas.findings:
            problems.append("traced shrink found other cells")
        probed = ledger.counts["exploration.probed"]
        m["exploration.admit_ratio"] = ledger.counts["exploration.admitted"] / probed
    else:
        traced_records = [staged_cell(c, ledger) for c in pas.specs]
        traced_wall = time.perf_counter() - t
    if record_bytes(traced_records) != record_bytes(pas.records):
        problems.append("traced records differ from the end-to-end records")

    # executor-level ratios on the same cells, both sides measured here
    sub = workload.subset(pas)
    runner = workload.runner
    batched = _timed(SerialExecutor(runner, batch=True).run, sub)
    plain = _timed(SerialExecutor(runner, batch=False).run, sub)
    parallel = _timed(ParallelExecutor(JOBS, runner).run, sub)
    m["analysis.batch.lockstep_speedup"] = plain / batched
    m["analysis.executor.parallel_efficiency"] = batched / (JOBS * parallel)
    m["analysis.executor.groups"] = len(group_cells(pas.specs))
    captured = sum(_timed(CellTemplate(s, causal=True).run, s.seed) for s in sub)
    uncaptured = sum(_timed(CellTemplate(s, causal=False).run, s.seed) for s in sub)
    m["sim.provenance.capture_overhead"] = captured / uncaptured

    # the cache layer on the pass's own records
    salt = PROBE_CACHE_SALT if name == "fuzz_churn" else ""
    root = workdir / "ledger-cache"
    unique = dict(zip(pas.specs, pas.records))
    m["analysis.cache.put_many_s"] = _timed(
        ResultCache(root, salt=salt).put_many, unique.items()
    )
    handle = ResultCache(root, salt=salt)
    t = time.perf_counter()
    disk = handle.get_many(pas.specs)
    m["analysis.cache.get_many_disk_s"] = time.perf_counter() - t
    m["analysis.cache.get_many_memory_s"] = _timed(handle.get_many, pas.specs)
    m["analysis.cache.hit_ratio"] = handle.hits / (handle.hits + handle.misses)
    m["analysis.cache.segment_bytes"] = handle.stats()["bytes"]
    if record_bytes(disk) != record_bytes(pas.records):
        problems.append("cache served other records than stored")
    if pas.campaign is not None:
        m["scenarios.write_report_s"] = _timed(
            write_report, pas.campaign, workdir / "ledger-report"
        )

    # the whole workload again, untraced now that it is warm, and under
    # a telemetry capture
    gc.collect()
    again = workload.run_pass(workdir)
    gc.collect()
    with capture():
        observed = workload.run_pass(workdir)
    if not again.digest == observed.digest == pas.digest:
        problems.append("work digest differs between passes")
    m["obs.telemetry_overhead"] = observed.wall_s / again.wall_s
    # every warm slot does the same work; the best one over both
    # untraced passes
    warm_s = workload.warm_replay(pas, workdir / "warm") + workload.warm_replay(
        again, workdir / "warm-again"
    )
    m["warm_cells_per_s"] = pas.warm_cells / min(warm_s)

    untraced_wall = again.wall_s if workload.serial else batched
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    m["failed_frac"] = pas.failed_cells / pas.cells
    m.update(ledger.seconds)
    m.update(ledger.counts)
    for loop in LOOPS:
        events = ledger.loop_events[loop]
        m[f"sim.ns_per_event.{loop}"] = ledger.loop_ns[loop] / events if events else 0.0
    p, tail = high_percentile(ledger.cell_ms)
    m["cell.p50_ms"] = statistics.median(ledger.cell_ms)
    m["cell.p99_ms"] = tail
    m["cell.samples"] = len(ledger.cell_ms)
    metrics = {key: float(m.get(key, 0.0)) for key in PER_LAYER}
    return {
        "first": pas,
        "unit_s": [pas.unit_s, again.unit_s, observed.unit_s],
        "problems": problems,
        "metrics": metrics,
        "units": PER_LAYER,
        "notes": [f"cell.p99_ms is the p{100 * p:g} of {len(ledger.cell_ms)} cells"],
    }


def report(name: str, seed: int, out: dict) -> dict:
    """Print the human-readable summary; return the final JSON object."""
    first, unit_s = out["first"], out["unit_s"]
    print(f"workload {name} seed {seed}: {len(unit_s)} pass(es), "
          f"{first.cells} cells each, work digest {first.digest[:16]}")
    for i, times in enumerate(unit_s, 1):
        units = " ".join(f"{t:.3f}" for t in times)
        print(f"  pass {i}: {sum(times):.3f} s in units [{units}]")
    for key, value in out["metrics"].items():
        print(f"  {key:40s} {value:16.6f} {out['units'][key]}")
    print(f"  failed_frac {first.failed_cells}/{first.cells} = "
          f"{first.failed_cells / first.cells:.6f} (failed cells / attempted cells)")
    for note in out.get("notes", []):
        print(f"  note: {note}")
    for finding in first.findings:
        how = "shrunk" if finding["shrunk"] else "not shrunk"
        print(f"  finding ({how}): {finding['cell']} "
              f"{finding['failures']} {finding['error']}")
    for problem in out["problems"]:
        print(f"  FAILED CHECK: {problem}")
    return {
        "correct": not out["problems"],
        "attempted": first.cells * len(unit_s),
        "failed": len(out["problems"]),
        "metrics": {
            key: {"value": value, "unit": out["units"][key]}
            for key, value in out["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            out = traced_run(args.workload, args.seed, workdir)
        else:
            out = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report(args.workload, args.seed, out)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
