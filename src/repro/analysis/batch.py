"""Multi-seed group runner: one template per seed-varying cell group.

A sweep grid crosses every axis with ``seeds``, so the flat cell list is
full of *groups* that differ only in the seed — same family, size,
algorithm, delay, fault, scheduler. The runner exploits that shape:

* :class:`CellTemplate` factors the seed axis out of a
  :class:`~repro.analysis.executor.RunSpec` — the algorithm registry
  lookup and the delay/scheduler name validation happen once per group,
  and ``run(seed)`` is the one cell semantics
  (:func:`repro.analysis.harness.run_single` itself delegates here);
* :func:`group_cells` finds the seed-varying groups positionally;
* :func:`run_cells` runs one group through one template, cell by cell;
* :func:`maybe_run_batched` is the executor hook: it routes groups
  through a runner's ``run_batch`` attribute and everything else through
  the plain per-cell runner, preserving cell order exactly.

Every cell runs on its own through ``CellTemplate.run``, so grouping
never changes a record — the executor and cache layers treat grouped
and per-cell results interchangeably (same cache schema, same bytes).
This is pinned by ``tests/test_batch.py`` across algorithms, schedulers
and fault plans.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..algorithms import get_algorithm
from ..errors import AnalysisError, ProtocolError, StallError, TerminationError
from ..graphs.generators import make_family
from ..obs import Telemetry
from ..obs import current as obs
from ..sim.churn import NO_CHURN, churn_plan_from_name, merge_plans
from ..sim.provenance import CausalCapture
from ..sim.delays import delay_model_from_name
from ..sim.faults import NO_FAULT, fault_plan_from_name
from ..sim.scheduler import scheduler_from_name
from ..spanning.provider import build_spanning_tree
from .axes import axis_fields
from .executor import RunSpec, execute_cell
from .records import RunRecord

__all__ = [
    "CellTemplate",
    "group_cells",
    "run_cells",
    "maybe_run_batched",
    "emit_group_spans",
]


class CellTemplate:
    """A :class:`RunSpec` with the seed axis factored out.

    Construction resolves the algorithm and validates the delay and
    scheduler names (raising exactly what a run would raise for the same
    spec, just eagerly). ``run(seed)`` reproduces
    :func:`~repro.analysis.harness.run_single` for ``replace(spec,
    seed=seed)`` — it *is* its implementation.

    Delay models and scheduler policies carry per-run RNG state, so
    every run gets fresh instances; what the template hoists is the
    name resolution and the shared record-building epilogue.

    With ``causal=True`` every run is driven with a fresh
    :class:`~repro.sim.provenance.CausalCapture` and its summary travels
    on the record's ``causal`` field (the exploration probes' mode —
    feeds the fuzzer's causal coverage signals). A capture is a pure
    function of the run, so captured records stay byte-identical
    however the cells are grouped.
    """

    __slots__ = ("spec", "algorithm", "causal", "fields")

    def __init__(self, spec: RunSpec, *, causal: bool = False) -> None:
        self.spec = spec
        self.algorithm = get_algorithm(spec.algorithm)
        self.causal = bool(causal)
        self.fields = axis_fields(spec)
        delay_model_from_name(spec.delay)
        scheduler_from_name(spec.scheduler)
        churn_plan_from_name(spec.churn, 1, 0)  # eager name validation

    # -- seed-dependent prelude ------------------------------------------

    def setup(self, seed: int):
        """Instance shape for one seed: graph, startup tree, wrapper plan.

        The per-node wrapper plan composes the churn plan (innermost —
        churn instruments the bare process) with the fault plan, exactly
        once per seed.
        """
        s = self.spec
        graph = make_family(s.family, s.n, seed=seed)
        startup = build_spanning_tree(graph, method=s.initial_method, seed=seed)
        startup_messages = (
            startup.report.total_messages if startup.report is not None else 0
        )
        plan = merge_plans(
            churn_plan_from_name(s.churn, graph.n, seed),
            fault_plan_from_name(s.fault, graph.n, seed),
        )
        return graph, startup, startup_messages, plan

    def flattens(self, exc: Exception) -> bool:
        """Does this protocol failure flatten into a ``stalled`` record?

        Under a fault plan every :class:`TerminationError` /
        :class:`ProtocolError` does — the paper's reliability assumption
        is broken outright, so "the protocol gave up" is the certified
        outcome. Under churn (lossless, in-order — schedule-equivalent
        to admissible asynchrony) only genuine stalls do: stranded held
        events surface as :class:`StallError` (quiescent, unfinished
        nodes) or :class:`TerminationError` (event-budget cap). Any
        other protocol error under churn is *corruption* and propagates
        as a real bug.
        """
        s = self.spec
        if s.fault != NO_FAULT:
            return True
        return s.churn != NO_CHURN and isinstance(
            exc, (TerminationError, StallError)
        )

    # -- drive ----------------------------------------------------------

    def attempt(self, seed: int, cap: CausalCapture | None = None):
        """Set up and drive one seed: ``(graph, startup, startup_messages,
        outcome)``. The outcome is the algorithm's result, or the
        exception of a failure that :meth:`flattens` (the CLI reports it
        as a loud stall); any other failure propagates."""
        s = self.spec
        graph, startup, startup_messages, plan = self.setup(seed)
        try:
            outcome = self.algorithm.run(
                graph,
                startup.tree,
                mode=s.mode,
                max_rounds=s.max_rounds,
                seed=seed,
                delay=delay_model_from_name(s.delay),
                faults=plan or None,
                scheduler=scheduler_from_name(s.scheduler),
                causal=cap,
            )
        except (TerminationError, ProtocolError) as exc:
            if not self.flattens(exc):
                raise
            outcome = exc
        return graph, startup, startup_messages, outcome

    def run(self, seed: int, sink: CausalCapture | None = None) -> RunRecord:
        """One complete per-cell run (the reference semantics).

        *sink* is an explicit capture to drive the run with (the CLI's
        ``--causal-out`` path, which wants the full DAG back); without
        one, a template constructed with ``causal=True`` captures into a
        private instance and keeps only the summary.
        """
        cap = sink if sink is not None else (
            CausalCapture() if self.causal else None
        )
        graph, startup, startup_messages, outcome = self.attempt(seed, cap)
        if isinstance(outcome, Exception):
            return self.stalled_record(
                seed, graph, startup, startup_messages, cap
            )
        return self.ok_record(seed, graph, startup_messages, outcome, cap)

    # -- record building (the single source of record truth) -----------

    def ok_record(
        self, seed, graph, startup_messages, result, cap=None
    ) -> RunRecord:
        return RunRecord(
            **self.fields,
            n=graph.n,
            m=graph.m,
            seed=seed,
            k_initial=result.initial_degree,
            k_final=result.final_degree,
            rounds=result.num_rounds,
            messages=result.messages,
            causal_time=result.causal_time,
            bits=result.report.total_bits,
            max_msg_fields=result.report.max_id_fields,
            startup_messages=startup_messages,
            events=result.report.events_processed,
            causal=cap.summary() if cap is not None else {},
        )

    def stalled_record(
        self, seed, graph, startup, startup_messages, cap=None
    ) -> RunRecord:
        return RunRecord(
            **self.fields,
            n=graph.n,
            m=graph.m,
            seed=seed,
            k_initial=startup.tree.max_degree(),
            k_final=startup.tree.max_degree(),
            rounds=0,
            messages=0,
            causal_time=0,
            bits=0,
            max_msg_fields=0,
            startup_messages=startup_messages,
            outcome="stalled",
            # the partial capture is still a pure function of the
            # (deterministic) stalled schedule — stalled records keep
            # their attribution so forensics cover failures too
            causal=cap.summary() if cap is not None else {},
        )


def group_key(spec: RunSpec) -> RunSpec:
    """The seed-erased identity of a cell (group membership key)."""
    return dataclasses.replace(spec, seed=0)


def group_cells(cells: Sequence[RunSpec]) -> list[list[int]]:
    """Partition *cells* into seed-varying-only groups.

    Returns index lists in first-occurrence order; each list holds the
    positions of one group's cells in their original order. Grouping is
    global (not just contiguous runs), so interleaved grids still batch.
    """
    groups: dict[RunSpec, list[int]] = {}
    for i, spec in enumerate(cells):
        groups.setdefault(group_key(spec), []).append(i)
    return list(groups.values())


def run_cells(
    cells: Sequence[RunSpec], *, causal: bool = False
) -> list[RunRecord]:
    """Run one seed-varying group through a single :class:`CellTemplate`.

    The template is resolved once; each cell then runs on its own via
    ``template.run(seed)``, so the records — and their error semantics —
    are exactly the per-cell ones: with a fault injected, a stalling
    cell flattens into a ``stalled`` record; without one, the first
    failure propagates and aborts the group, exactly as it aborts a
    serial sweep. ``causal=True`` gives every cell its own capture.
    """
    cells = list(cells)
    if not cells:
        return []
    template = CellTemplate(cells[0], causal=causal)
    key = group_key(cells[0])
    for c in cells[1:]:
        if group_key(c) != key:
            raise AnalysisError(
                f"batch cells must differ only in seed: {c} vs {cells[0]}"
            )
    t = obs()
    t.count("exec.groups")
    t.count("exec.cells.batched", len(cells))
    return [template.run(c.seed) for c in cells]


def maybe_run_batched(runner, cells: Sequence[RunSpec]) -> list[RunRecord]:
    """Executor hook: batch seed-varying groups, run the rest per-cell.

    *runner* opts in by exposing a ``run_batch`` attribute (a callable
    over one group); singleton groups and opt-out runners go through the
    plain per-cell call. Output order is the cell order, always.
    """
    run_batch = getattr(runner, "run_batch", None)
    if run_batch is None:
        if cells:
            obs().count("exec.cells.single", len(cells))
        return [runner(spec) for spec in cells]
    records: list[RunRecord | None] = [None] * len(cells)
    for idxs in group_cells(cells):
        if len(idxs) == 1:
            obs().count("exec.cells.single")
            records[idxs[0]] = runner(cells[idxs[0]])
        else:
            for i, rec in zip(idxs, run_batch([cells[i] for i in idxs])):
                records[i] = rec
    return records  # type: ignore[return-value]


def emit_group_spans(
    t: Telemetry,
    cells: Sequence[RunSpec],
    records: Sequence[RunRecord],
    name: str = "group",
) -> None:
    """Emit one *logical* instant span per seed-varying cell group.

    The span attrs are derived purely from the specs and the finished
    records (cell counts, summed events/messages, stalled tally), never
    from how the work physically executed — so the span tree of a sweep
    is byte-identical whether the records came from a serial loop, a
    worker pool, or a warm cache. Drivers call this after execution;
    groups appear in first-occurrence order (the :func:`group_cells`
    order, which is itself a pure function of the cell list).
    """
    for idxs in group_cells(cells):
        spec = cells[idxs[0]]
        group = [records[i] for i in idxs]
        t.leaf(
            name,
            family=spec.family,
            n=spec.n,
            algorithm=spec.algorithm,
            fault=spec.fault,
            scheduler=spec.scheduler,
            churn=spec.churn,
            cells=len(group),
            events=sum(r.events for r in group),
            messages=sum(r.messages for r in group),
            stalled=sum(1 for r in group if r.outcome == "stalled"),
        )


#: the default cell runner runs seed-varying groups through one template
execute_cell.run_batch = run_cells
