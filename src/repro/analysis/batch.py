"""Multi-seed group runner: one template per seed-varying cell group.

A sweep grid crosses every axis with ``seeds``, so the flat cell list is
full of *groups* that differ only in the seed — same family, size,
algorithm, delay, fault, scheduler. The runner exploits that shape:

* :class:`CellTemplate` factors the seed axis out of a
  :class:`~repro.analysis.executor.RunSpec` — the algorithm registry
  lookup and the delay model and scheduler policy are resolved once per
  group, and ``run(seed)`` is the one cell semantics
  (:func:`repro.analysis.harness.run_single` itself delegates here);
* :func:`instance` is the per-process instance memo the template (and
  the exploration oracle, probe and shrinker) build every graph,
  startup tree, churn plan, graph-only Δ* bound and exact Δ* through;
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

from functools import lru_cache
from typing import Sequence

from ..algorithms import ALGORITHMS
from ..errors import AnalysisError, ProtocolError, StallError, TerminationError, lookup
from ..graphs.generators import make_family
from ..graphs.graph import Graph
from ..graphs.properties import min_degree_lower_bound
from ..obs import Telemetry
from ..obs import current as obs
from ..sequential.exact import optimal_degree
from ..sim.churn import NO_CHURN, ChurnPlan, churn_plan_from_name, merge_plans
from ..sim.delays import delay_model_from_name
from ..sim.faults import NO_FAULT, fault_plan_from_name
from ..sim.provenance import CausalTally
from ..sim.scheduler import scheduler_from_name
from ..spanning.base import SpanningTreeOutcome
from ..spanning.provider import build_spanning_tree
from ..verify.certification import judge
from .axes import axis_fields
from .executor import RunSpec, execute_cell
from .records import RunRecord

__all__ = [
    "Instance",
    "instance",
    "INSTANCE_MEMO_SIZE",
    "CellTemplate",
    "group_cells",
    "run_cells",
    "maybe_run_batched",
    "emit_group_spans",
]


#: Instances the per-process memo keeps, least recently used evicted
#: first. Covers a fuzz campaign's working set (a few dozen small
#: instances) and a sweep's seed group while keeping at most this many
#: graphs alive.
INSTANCE_MEMO_SIZE = 32


class Instance:
    """One ``(family, n, seed)`` instance: the graph, plus what the
    layers above derive from it alone, each computed on first use.

    * :meth:`startup` — the startup tree and startup message count per
      initial method (built with the instance seed, as every cell does;
      the startup network's report is dropped, never kept);
    * :meth:`churn_plan` — the expanded churn plan per plan name (plans
      are deterministic in ``(name, n, seed)``, and a plan's wrappers
      keep their state per wrapped process, so one plan serves every
      run);
    * :meth:`lower_bound` — the graph-only lower bound on Δ* that
      :func:`~repro.verify.certification.judge` takes the maximum with;
    * :meth:`optimum` — Δ* per exact-solver limit.

    Instances are shared through :func:`instance`, so the graph and the
    trees are **read-only** for every caller: a run reads them and
    builds its own processes, never mutates them (pinned by
    ``tests/test_batch.py``).
    """

    __slots__ = ("graph", "seed", "_startups", "_plans", "_bound", "_optima")

    def __init__(self, graph: Graph, seed: int) -> None:
        self.graph = graph
        self.seed = seed
        self._startups: dict[str, tuple[SpanningTreeOutcome, int]] = {}
        self._plans: dict[str, ChurnPlan] = {}
        self._bound: int | None = None
        self._optima: dict[int, int] = {}

    def startup(self, method: str) -> tuple[SpanningTreeOutcome, int]:
        """``(startup, startup_messages)`` for *method*; the outcome's
        ``report`` is always ``None``."""
        got = self._startups.get(method)
        if got is None:
            built = build_spanning_tree(self.graph, method=method, seed=self.seed)
            messages = built.report.total_messages if built.report is not None else 0
            got = (SpanningTreeOutcome(tree=built.tree, report=None), messages)
            self._startups[method] = got
        return got

    def churn_plan(self, name: str) -> ChurnPlan:
        """The churn plan *name* expanded for this graph and seed (an
        unknown name raises ``ValueError``, uncached)."""
        plan = self._plans.get(name)
        if plan is None:
            plan = self._plans[name] = churn_plan_from_name(
                name, self.graph.n, self.seed
            )
        return plan

    def lower_bound(self) -> int:
        """``min_degree_lower_bound`` of the graph."""
        if self._bound is None:
            self._bound = min_degree_lower_bound(self.graph)
        return self._bound

    def optimum(self, limit: int) -> int:
        """Δ* from the exact solver capped at *limit* nodes (a
        :class:`~repro.errors.SolverError` propagates, uncached)."""
        opt = self._optima.get(limit)
        if opt is None:
            opt = optimal_degree(self.graph, node_limit=limit)
            self._optima[limit] = opt
        return opt


@lru_cache(maxsize=INSTANCE_MEMO_SIZE)
def instance(family: str, n: int, seed: int) -> Instance:
    """The memoized instance for ``(family, n, seed)`` — per process,
    bounded by :data:`INSTANCE_MEMO_SIZE`. A failing ``make_family``
    raises and caches nothing."""
    return Instance(make_family(family, n, seed=seed), seed)


class CellTemplate:
    """A :class:`RunSpec` with the seed axis factored out.

    Construction resolves the algorithm, the delay model and the
    scheduler policy (raising exactly what a run would raise for the
    same spec, just eagerly). ``run(seed)`` reproduces
    :func:`~repro.analysis.harness.run_single` for ``replace(spec,
    seed=seed)`` — it *is* its implementation.

    Delay models and scheduler policies carry per-run RNG state, but the
    network re-binds both at build time (``bind(seed, ...)`` resets every
    stream and cursor), so the template's one instance of each serves
    all its runs, one after another. The graph, startup tree, churn plan
    and graph-only Δ* bound come from the :func:`instance` memo and are
    shared with every other run of the same ``(family, n, seed)`` in the
    process — a run must never mutate them.

    With ``causal=True`` every run is driven with a fresh
    :class:`~repro.sim.provenance.CausalTally` and its summary travels
    on the record's ``causal`` field (the exploration probes' mode —
    feeds the fuzzer's causal coverage signals). A tally is a pure
    function of the run, so captured records stay byte-identical
    however the cells are grouped.
    """

    __slots__ = ("spec", "algorithm", "causal", "fields", "delay", "scheduler", "_instance")

    def __init__(self, spec: RunSpec, *, causal: bool = False) -> None:
        self.spec = spec
        self.algorithm = lookup(ALGORITHMS, spec.algorithm, "algorithm")
        self.causal = bool(causal)
        self.fields = axis_fields(spec)
        self.delay = delay_model_from_name(spec.delay)
        self.scheduler = scheduler_from_name(spec.scheduler)
        churn_plan_from_name(spec.churn, 1, 0)  # eager name validation
        #: the instance of the latest :meth:`setup`
        self._instance: Instance | None = None

    # -- seed-dependent prelude ------------------------------------------

    def setup(self, seed: int):
        """Instance shape for one seed: graph, startup tree, wrapper plan.

        Graph and startup come from the shared :func:`instance` memo
        (read-only). The per-node wrapper plan composes the churn plan
        (innermost — churn instruments the bare process) with the fault
        plan, exactly once per seed.
        """
        s = self.spec
        inst = self._instance = instance(s.family, s.n, seed)
        graph = inst.graph
        startup, startup_messages = inst.startup(s.initial_method)
        plan = merge_plans(
            inst.churn_plan(s.churn),
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

    def attempt(self, seed: int, cap: CausalTally | None = None):
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
                delay=self.delay,
                faults=plan or None,
                scheduler=self.scheduler,
                causal=cap,
            )
        except (TerminationError, ProtocolError) as exc:
            if not self.flattens(exc):
                raise
            outcome = exc
        return graph, startup, startup_messages, outcome

    def run(self, seed: int, sink: CausalTally | None = None) -> RunRecord:
        """One complete per-cell run (the reference semantics).

        *sink* is an explicit capture to drive the run with (the CLI's
        ``--causal-out`` path, which wants the full DAG back); without
        one, a template constructed with ``causal=True`` drives a private
        summary-only :class:`~repro.sim.provenance.CausalTally`.
        """
        cap = sink if sink is not None else (
            CausalTally() if self.causal else None
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
        inst = self._instance
        judgement = judge(
            graph,
            result.final_tree,
            # the memo's bound, when this is the graph the template set up
            graph_bound=inst.lower_bound() if inst is not None and inst.graph is graph else None,
        )
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
            lb=judgement.lb,
            fr_improvable=judgement.fr_improvable,
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


def group_key(spec: RunSpec) -> tuple:
    """The seed-erased identity of a cell (group membership key): every
    field value but the seed, in field order."""
    key = dict(spec.__dict__)
    del key["seed"]
    return tuple(key.values())


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
