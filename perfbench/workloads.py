"""The benchmark's three workloads: inputs drawn from a seed, one timed
end-to-end pass through the program's public entry points, output checks
and warm replay through fresh ``ResultCache`` handles.

Every workload exposes the same small surface, used by ``run.py``:

* ``run_pass(workdir)`` — one timed pass, returning a :class:`Pass`;
* ``warm_replay(pas, workdir)`` — seconds per warm replay of the pass,
  one figure per timed warm slot;
* ``subset(pas)`` — the cells the traced run's executor ratios use;
* ``runner`` — the cell runner the program uses for these cells;
* ``serial`` — whether the timed pass runs in this process alone.

The traced re-drive of the same cells lives in ``ledger.py``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.analysis import ResultCache, RunRecord, RunSpec, SweepSpec, run_sweep
from repro.analysis.executor import SerialExecutor, execute_cell, make_executor
from repro.errors import ReproError
from repro.exploration import (
    PROBE_CACHE_SALT,
    ExplorationCell,
    FuzzReport,
    FuzzSpec,
    probe_cell,
    record_signature,
    run_fuzz,
    shrink,
)
from repro.scenarios.library import SCENARIOS
from repro.scenarios.report import write_report
from repro.scenarios.runner import run_campaign
from repro.scenarios.spec import CampaignSpec

__all__ = ["WORKLOADS", "Pass", "crash_record", "guarded_shrink", "record_bytes"]

#: worker processes for the campaign's pool: the program's own pool is
#: the only parallelism, capped at two workers
JOBS = max(1, min(2, os.cpu_count() or 1))

SWEEP_SIZES = (64, 80)
SWEEP_SEEDS = 6  # graph seeds per (family, size, algorithm)
SWEEP_UNIT_SEEDS = 2  # seeds per timed unit: a two-replica lockstep group
CAMPAIGN_SEEDS = 10  # the seed axis every built-in scenario is grown to
FUZZ_CAMPAIGNS = 8  # independent fuzz campaigns per pass
FUZZ_BUDGET = 160  # probed cells per campaign
FUZZ_SHRINK = 1  # failures shrunk per campaign
FUZZ_SEED_SPACE = 1 << 12  # the fuzzer's own reseed space
#: warm slots per pass, and replays timed back to back as one slot, so
#: that a slot takes a tenth of a second or more; every slot does the
#: same work, and a run reports its best slot
WARM_SLOTS = 4
SWEEP_WARM_REPLAYS = 40
CAMPAIGN_WARM_SLOTS = 2

#: the record fields the work digest covers: identity plus simulated work
WORK_FIELDS = (
    "family", "n", "m", "seed", "algorithm", "initial_method", "delay",
    "fault", "scheduler", "churn", "outcome", "k_initial", "k_final",
    "rounds", "messages", "causal_time", "bits", "events",
    "startup_messages",
)


def draw(seed: int, label: str, count: int, space: int = 1 << 20) -> tuple[int, ...]:
    """*count* distinct ints below *space*, a pure function of (seed, label)."""
    return tuple(random.Random(f"{label}:{seed}").sample(range(space), count))


def record_bytes(records: Sequence[RunRecord]) -> bytes:
    return json.dumps(
        [r.to_json_dict() for r in records], sort_keys=True
    ).encode("utf-8")


def work_digest(records: Sequence[RunRecord]) -> str:
    """sha256 over the records' work fields, in record order."""
    rows = [[getattr(r, f) for f in WORK_FIELDS] for r in records]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def check_records(
    cells: Sequence[RunSpec], records: Sequence[RunRecord]
) -> list[str]:
    """Problems with a sweep or campaign's records (empty = all correct).

    A record must answer its own cell, a completed run must never end
    above its startup degree, and only a cell with a fault or churn plan
    may stall (the certify-or-stall rule)."""
    if len(cells) != len(records):
        return [f"{len(records)} records for {len(cells)} cells"]
    problems = []
    for spec, r in zip(cells, records):
        where = f"{spec.family} n={spec.n} seed={spec.seed} {spec.algorithm}"
        if (r.family, r.seed, r.algorithm, r.fault, r.scheduler, r.churn) != (
            spec.family, spec.seed, spec.algorithm, spec.fault,
            spec.scheduler, spec.churn,
        ):
            problems.append(f"{where}: record answers another cell")
        elif r.outcome == "ok":
            if r.k_final > r.k_initial or (r.n > 2 and r.events <= 0):
                problems.append(f"{where}: uncertified record {r.k_final=}")
        elif r.outcome != "stalled" or (spec.fault, spec.churn) == ("none", "none"):
            problems.append(f"{where}: outcome {r.outcome}")
    return problems


def crash_record(spec: RunSpec, exc: BaseException) -> RunRecord:
    """The error record of a probe that raised outside the library's own
    error types (``probe_cell`` only converts ``ReproError``): the cell
    fails in the oracle instead of aborting the campaign."""
    return RunRecord(
        family=spec.family, n=spec.n, m=0, seed=spec.seed,
        initial_method=spec.initial_method, mode=spec.mode, delay=spec.delay,
        algorithm=spec.algorithm, k_initial=0, k_final=0, rounds=0,
        messages=0, causal_time=0, bits=0, max_msg_fields=0,
        max_rounds=spec.max_rounds, fault=spec.fault,
        scheduler=spec.scheduler, churn=spec.churn, outcome="error",
        extra={"error": f"{type(exc).__name__}: {exc}"},
    )


def guarded_probe(spec: RunSpec) -> RunRecord:
    try:
        return probe_cell(spec)
    except Exception as exc:  # a crash is a failed cell, never an abort
        return crash_record(spec, exc)


class ProbeLog:
    """The fuzz workload's probe executor: the program's serial probe
    backend, plus a log of every (spec, record) it serves. A batch that
    crashes outside ``ReproError`` is re-probed cell by cell, so the
    crashing cell becomes an error record and the campaign goes on."""

    def __init__(self) -> None:
        self.inner = SerialExecutor(probe_cell)
        self.specs: list[RunSpec] = []
        self.records: list[RunRecord] = []

    def run(self, cells: Sequence[RunSpec]) -> list[RunRecord]:
        try:
            records = self.inner.run(cells)
        except Exception:
            records = [guarded_probe(c) for c in cells]
        self.specs.extend(cells)
        self.records.extend(records)
        return records


def guarded_shrink(cell: ExplorationCell, spec: FuzzSpec) -> dict[str, Any]:
    """Shrink one failing cell the way ``run_fuzz`` does, but report a
    shrink that crashes instead of aborting the workload."""
    try:
        out = shrink(cell, exact_limit=spec.exact_limit, max_probes=120)
    except Exception as exc:
        return {"cell": cell.canonical(), "failures": [],
                "error": f"{type(exc).__name__}: {exc}", "shrunk": False}
    errors = [r.extra.get("error", "") for r in out.result.records if r.extra]
    return {"cell": out.cell.canonical(),
            "failures": list(out.result.verdict.failures),
            "error": errors[0] if errors else "", "shrunk": True}


@dataclass
class Pass:
    """One timed end-to-end pass.

    A pass is a fixed sequence of timed *units* (one entry-point call
    each); ``run.py`` keeps each unit's best time over the passes of a
    run, which filters the host's short stalls out of the throughputs.
    """

    unit_s: list[float]  # wall seconds per unit, same units every pass
    cells: int  # the cells_per_s numerator: the probe units' cells
    records: list[RunRecord]  # every run record, in execution order
    problems: list[str] = field(default_factory=list)  # failed checks
    failed_cells: int = 0
    coverage: float = 0.0
    warm_s: list[float] | None = None  # campaign: per warm replay + report
    findings: list[dict[str, Any]] = field(default_factory=list)
    reports: list[FuzzReport] = field(default_factory=list)
    specs: list[RunSpec] = field(default_factory=list)  # aligned with records
    campaign: Any = None  # the cold CampaignResult (campaign only)
    #: the units that ran ``cells`` and hold ``records``' simulated
    #: events (None: all); the throughputs divide by their time only
    probe_units: list[bool] | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.unit_s)

    @property
    def digest(self) -> str:
        extra = [(r.coverage_digest, r.corpus_digest) for r in self.reports]
        return hashlib.sha256(
            (work_digest(self.records) + json.dumps(extra)).encode("utf-8")
        ).hexdigest()

    @property
    def warm_cells(self) -> int:
        """Cells one warm replay serves: the campaign's cells, else one
        lookup per record."""
        return len(self.specs) if self.warm_s is None else self.cells

    def exact_metrics(self) -> dict[str, float]:
        ok = [r for r in self.records if r.ok]
        if not ok:
            raise ReproError("no completed cell in the pass")
        return {
            "msgs_per_cell": statistics.fmean(r.messages for r in ok),
            "causal_time_per_cell": statistics.fmean(r.causal_time for r in ok),
            "k_final_mean": statistics.fmean(r.k_final for r in ok),
            "coverage_buckets": self.coverage
            or float(len({record_signature(r) for r in self.records})),
        }


def _replay_cache(
    root: Path,
    salt: str,
    store: Sequence[tuple[RunSpec, RunRecord]],
    replay,
    pas: Pass,
    replays: int = 1,
) -> list[float]:
    """Store the cold records once, then time ``WARM_SLOTS`` slots of
    *replays* back-to-back replays of the pass, each replay through a
    fresh handle. Every lookup must hit, and the replayed records must
    equal the cold ones byte for byte. Returns each slot's seconds per
    replay. Each slot starts from a full collection, so that none pays
    for collecting the pass's garbage."""
    ResultCache(root, salt=salt).put_many(store)
    cold = record_bytes(pas.records)
    times = []
    for _ in range(WARM_SLOTS):
        handles = [ResultCache(root, salt=salt) for _ in range(replays)]
        gc.collect()
        t = time.perf_counter()
        served = [replay(handle) for handle in handles]
        times.append((time.perf_counter() - t) / replays)
        for handle, warm in zip(handles, served):
            if handle.misses or handle.hits != len(pas.specs) or record_bytes(warm) != cold:
                raise ReproError("warm replay differs from the cold records")
    return times


class SweepUnit:
    name = "sweep_unit"
    runner = staticmethod(execute_cell)
    serial = True

    def __init__(self, seed: int) -> None:
        self.spec = SweepSpec(
            families=("gnp_sparse", "geometric"),
            sizes=SWEEP_SIZES,
            seeds=draw(seed, "sweep", SWEEP_SEEDS),
            algorithms=("blin_butelle", "fr_local"),
        )
        # short units, so that taking each unit's best time over the
        # passes filters the host's stalls; in this order their cells are
        # exactly the whole grid's cells
        seeds = self.spec.seeds
        self.groups = [
            dataclasses.replace(
                self.spec,
                families=(family,),
                sizes=(n,),
                algorithms=(algo,),
                seeds=seeds[i : i + SWEEP_UNIT_SEEDS],
            )
            for family in self.spec.families
            for n in self.spec.sizes
            for algo in self.spec.algorithms
            for i in range(0, len(seeds), SWEEP_UNIT_SEEDS)
        ]
        self.cells = list(self.spec.cells())

    def subset(self, pas: Pass) -> list[RunSpec]:
        seeds = self.spec.seeds[: SWEEP_SEEDS // 2]
        return [c for c in self.cells if c.n == SWEEP_SIZES[0] and c.seed in seeds]

    def run_pass(self, workdir: Path) -> Pass:
        records, unit_s = [], []
        for group in self.groups:
            t = time.perf_counter()
            records += run_sweep(group)
            unit_s.append(time.perf_counter() - t)
        problems = check_records(self.cells, records)
        return Pass(
            unit_s, len(records), records, problems, len(problems),
            specs=self.cells,
        )

    def warm_replay(self, pas: Pass, workdir: Path) -> list[float]:
        return _replay_cache(
            workdir, "", list(zip(self.cells, pas.records)),
            lambda handle: run_sweep(self.spec, cache=handle), pas,
            SWEEP_WARM_REPLAYS,
        )


class CampaignCached:
    name = "campaign_cached"
    runner = staticmethod(execute_cell)
    serial = False

    def __init__(self, seed: int) -> None:
        seeds = draw(seed, "campaign", CAMPAIGN_SEEDS)
        self.campaign = CampaignSpec(
            name="benchmark",
            scenarios=tuple(
                dataclasses.replace(sc, seeds=seeds) for sc in SCENARIOS.values()
            ),
        )
        # the campaign runner's own de-duplicated batch, first-seen order
        self.cells = list(
            dict.fromkeys(c for sc in self.campaign.scenarios for c in sc.cells())
        )
        self.passes = 0

    def subset(self, pas: Pass) -> list[RunSpec]:
        return self.cells

    def unique_records(self, result) -> list[RunRecord]:
        served = {}
        for sc in result.results:
            served.update(zip(sc.cells, sc.records))
        return [served[c] for c in self.cells]

    def run_pass(self, workdir: Path) -> Pass:
        self.passes += 1
        cache_dir = workdir / f"cache-{self.passes}"
        t = time.perf_counter()
        cold = run_campaign(self.campaign, jobs=JOBS, cache=cache_dir)
        wall = time.perf_counter() - t
        # warm replays, each through a fresh handle and followed by its
        # report, each one warm slot that starts from a full collection
        handles = [ResultCache(cache_dir) for _ in range(CAMPAIGN_WARM_SLOTS)]
        served, warm_s = [], []
        for i, handle in enumerate(handles):
            gc.collect()
            t = time.perf_counter()
            warm = run_campaign(self.campaign, jobs=JOBS, cache=handle)
            served.append((warm, write_report(warm, workdir / f"report-{self.passes}-{i}")))
            warm_s.append(time.perf_counter() - t)
        records = self.unique_records(cold)
        problems = check_records(self.cells, records)
        failed = len(problems)
        mismatched = 0
        for handle, (warm, (md, js)) in zip(handles, served):
            if handle.misses or handle.hits != len(self.cells):
                problems.append(
                    f"warm replay: {handle.hits} hits, {handle.misses} misses "
                    f"for {len(self.cells)} cells"
                )
            mismatched = max(mismatched, sum(
                a.to_json_dict() != b.to_json_dict()
                for a, b in zip(records, self.unique_records(warm))
            ))
            if not (md.stat().st_size and js.stat().st_size):
                problems.append("empty campaign report")
        if mismatched:
            problems.append(f"{mismatched} warm records differ from cold")
        return Pass(
            [wall], cold.num_cells, records, problems, failed + mismatched,
            warm_s=warm_s, specs=self.cells, campaign=cold,
        )

    def warm_replay(self, pas: Pass, workdir: Path) -> list[float]:
        return pas.warm_s  # timed inside every pass


class FuzzChurn:
    name = "fuzz_churn"
    runner = staticmethod(probe_cell)
    serial = True

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"fuzz:{seed}")
        self.specs = [
            FuzzSpec(
                seed=rng.randrange(1 << 31),
                seeds=tuple(rng.sample(range(FUZZ_SEED_SPACE), 4)),
                budget=FUZZ_BUDGET,
            )
            for _ in range(FUZZ_CAMPAIGNS)
        ]

    def subset(self, pas: Pass) -> list[RunSpec]:
        return [
            s for s, r in zip(pas.specs, pas.records) if r.outcome != "error"
        ][:400]

    def run_pass(self, workdir: Path) -> Pass:
        logs, reports, findings, unit_s = [], [], [], []
        for spec in self.specs:
            t = time.perf_counter()
            log = ProbeLog()
            report = run_fuzz(spec, executor=log, max_shrink=0)
            unit_s.append(time.perf_counter() - t)
            t = time.perf_counter()
            for failure in report.failures[:FUZZ_SHRINK]:
                findings.append(guarded_shrink(failure.cell, spec))
            unit_s.append(time.perf_counter() - t)
            logs.append(log)
            reports.append(report)
        return Pass(
            unit_s,
            sum(r.probed for r in reports),
            [r for log in logs for r in log.records],
            failed_cells=sum(len(r.failures) for r in reports),
            coverage=statistics.fmean(r.coverage for r in reports),
            findings=findings,
            reports=reports,
            specs=[s for log in logs for s in log.specs],
            # the fuzz loop's units; the shrink units are timed but their
            # cost moves with how many campaigns fail, seed by seed
            probe_units=[True, False] * len(self.specs),
        )

    def warm_replay(self, pas: Pass, workdir: Path) -> list[float]:
        return _replay_cache(
            workdir, PROBE_CACHE_SALT,
            # probe specs repeat across campaigns; store each once
            list(dict(zip(pas.specs, pas.records)).items()),
            lambda handle: make_executor(cache=handle, runner=probe_cell).run(
                pas.specs
            ),
            pas,
        )


WORKLOADS = {w.name: w for w in (SweepUnit, CampaignCached, FuzzChurn)}
