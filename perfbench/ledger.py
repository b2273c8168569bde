"""The traced run: the same cells re-driven stage by stage through each
layer's public functions, every call timed from outside the program.

Nothing here reaches into the program's internals. A cell is re-driven
exactly as ``CellTemplate.run`` composes it — ``make_family``, then
``build_spanning_tree``, then ``get_algorithm(name).build``, then
``Network.run``, then the ``finalize`` that ``build`` returned, then
``CellTemplate.ok_record`` / ``stalled_record`` — so a traced record must
equal the end-to-end record of the same cell, and ``run.py`` checks that
it does. The fuzz loop is re-driven the same way from ``run_fuzz``'s own
public pieces (``FuzzSpec.seed_cells``, ``mutate_cell``, ``check_cell``,
``result_signature``, ``CoverageMap``, ``shrink``).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator

from repro.analysis import RunRecord, RunSpec
from repro.analysis.batch import CellTemplate
from repro.errors import ProtocolError, ReproError, TerminationError
from repro.exploration import (
    CoverageMap,
    ExplorationResult,
    FuzzSpec,
    check_cell,
    corpus_digest,
    mutate_cell,
    probe_cell,
    result_signature,
)
from repro.graphs.generators import make_family
from repro.rng import substream
from repro.sim.churn import churn_plan_from_name, merge_plans
from repro.sim.delays import delay_model_from_name
from repro.sim.faults import fault_plan_from_name
from repro.sim.provenance import CausalCapture
from repro.sim.scheduler import scheduler_from_name
from repro.spanning.provider import build_spanning_tree

from workloads import FUZZ_SHRINK, crash_record, guarded_shrink

__all__ = ["Ledger", "staged_cell", "staged_probe", "staged_fuzz", "loop_bucket"]

LOOPS = ("unit", "random_delay", "policy", "captured")


def loop_bucket(spec: RunSpec, captured: bool) -> str:
    """The drive loop a cell's configuration selects: causal capture and
    policy schedulers take the general loop, random delays the heap
    queue, plain unit delays the fast bucket loop."""
    if captured:
        return "captured"
    if spec.scheduler != "none":
        return "policy"
    if spec.delay != "unit":
        return "random_delay"
    return "unit"


class Ledger:
    """Per-layer sums of timed calls, counts and per-cell walls."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.loop_ns: dict[str, int] = defaultdict(int)
        self.loop_events: dict[str, int] = defaultdict(int)
        self.cell_ms: list[float] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        t = time.perf_counter_ns()
        try:
            yield
        finally:
            self.seconds[name] += (time.perf_counter_ns() - t) / 1e9


def staged_cell(spec: RunSpec, ledger: Ledger, captured: bool = False) -> RunRecord:
    """One cell, stage by stage (``CellTemplate.run`` taken apart)."""
    start = time.perf_counter_ns()
    template = CellTemplate(spec, causal=captured)
    seed = spec.seed
    cap = CausalCapture() if captured else None
    with ledger.span("graphs.make_family_s"):
        graph = make_family(spec.family, spec.n, seed=seed)
    with ledger.span("spanning.build_spanning_tree_s"):
        startup = build_spanning_tree(graph, method=spec.initial_method, seed=seed)
    startup_messages = (
        startup.report.total_messages if startup.report is not None else 0
    )
    ledger.counts["spanning.startup_messages"] += startup_messages
    net = None
    try:
        with ledger.span("algorithms.build_s"):
            plan = merge_plans(
                churn_plan_from_name(spec.churn, graph.n, seed),
                fault_plan_from_name(spec.fault, graph.n, seed),
            )
            net, finalize = template.algorithm.build(
                graph,
                startup.tree,
                mode=spec.mode,
                max_rounds=spec.max_rounds,
                seed=seed,
                delay=delay_model_from_name(spec.delay),
                faults=plan or None,
                scheduler=scheduler_from_name(spec.scheduler),
                causal=cap,
            )
        report = None
        if net is not None:
            bucket = loop_bucket(spec, captured)
            t = time.perf_counter_ns()
            try:
                report = net.run()
            finally:
                ns = time.perf_counter_ns() - t
                ledger.seconds["sim.run_s"] += ns / 1e9
                ledger.loop_ns[bucket] += ns
                ledger.loop_events[bucket] += net.processed
        with ledger.span("mdst.finalize_s"):
            result = finalize(report)
    except (TerminationError, ProtocolError) as exc:
        if not template.flattens(exc):
            raise
        with ledger.span("analysis.record_s"):
            record = template.stalled_record(
                seed, graph, startup, startup_messages, cap
            )
    else:
        with ledger.span("analysis.record_s"):
            record = template.ok_record(seed, graph, startup_messages, result, cap)
    ledger.counts["sim.messages"] += record.messages
    ledger.counts["sim.events"] += net.processed if net is not None else 0
    ledger.cell_ms.append((time.perf_counter_ns() - start) / 1e6)
    return record


def staged_probe(spec: RunSpec, ledger: Ledger) -> RunRecord:
    """One exploration probe, staged: a captured cell whose library
    errors become ``probe_cell``'s error record, and whose other crashes
    become the crash record the end-to-end probe executor writes."""
    try:
        return staged_cell(spec, ledger, captured=True)
    except ReproError:
        return probe_cell(spec)  # re-derives its own error record
    except Exception as exc:
        return crash_record(spec, exc)


def staged_fuzz(spec: FuzzSpec, ledger: Ledger) -> dict:
    """``run_fuzz(spec, max_shrink=0)`` plus the workload's shrink step,
    re-driven from the fuzzer's public pieces with every call timed.

    The loop mirrors ``run_fuzz`` statement for statement; the caller
    compares its records, coverage digest and corpus digest with the
    end-to-end campaign's, so any drift between the two shows up as a
    failed check rather than as a silently different ledger.
    """
    rng = substream(spec.seed, "fuzz:mutate")
    pending = list(spec.seed_cells())
    seen: set[str] = set()
    coverage = CoverageMap()
    corpus, failures, records = [], [], []
    probed = 0
    while probed < spec.budget:
        want = min(spec.batch, spec.budget - probed)
        batch = []
        attempts = 0
        while len(batch) < want and attempts < 64 * want:
            attempts += 1
            if pending:
                candidate = pending.pop(0)
            else:
                base_pool = corpus if corpus else list(spec.seed_cells())
                with ledger.span("exploration.mutate_s"):
                    candidate = mutate_cell(rng, base_pool, spec)
            key = candidate.canonical()
            if key in seen:
                continue
            seen.add(key)
            batch.append(candidate)
        if not batch:
            break
        for cell in batch:
            with ledger.span("exploration.probe_s"):
                cell_records = tuple(
                    staged_probe(s, ledger) for s in cell.run_specs()
                )
            with ledger.span("exploration.check_cell_s"):
                verdict = check_cell(cell, cell_records, exact_limit=spec.exact_limit)
            ledger.counts["exploration.exact_solves"] += verdict.opt is not None
            result = ExplorationResult(cell=cell, verdict=verdict, records=cell_records)
            records.extend(cell_records)
            if coverage.admit(result_signature(result)):
                corpus.append(cell)
            if not result.ok:
                failures.append(result)
        probed += len(batch)
    ledger.counts["exploration.probed"] += probed
    ledger.counts["exploration.admitted"] += len(corpus)
    findings = []
    with ledger.span("exploration.shrink_s"):
        for failure in failures[:FUZZ_SHRINK]:
            findings.append(guarded_shrink(failure.cell, spec))
    return {
        "records": records,
        "coverage_digest": coverage.digest(),
        "corpus_digest": corpus_digest(corpus),
        "failures": len(failures),
        "findings": findings,
    }
