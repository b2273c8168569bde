"""Error-capturing cell runner for exploration batches.

A plain sweep treats a protocol failure under the reliable model as
fatal (:func:`~repro.analysis.harness.run_single` raises). Exploration
*hunts* such failures across thousands of cells, so the unit of work
must convert them into data: :func:`probe_cell` runs one
:class:`~repro.analysis.executor.RunSpec` and flattens any library error
into an ``outcome="error"`` record carrying the exception in
``extra["error"]`` — the differential oracle turns that into a failure
verdict, and a parallel fan-out is never killed by the very bug it is
looking for.

``probe_cell`` is a module-level callable, so it plugs into every
executor backend as the ``runner`` (pickled by reference into
:class:`~repro.analysis.executor.ParallelExecutor` workers). When cached,
it must use a salted cache (:data:`PROBE_CACHE_SALT`) so probe records
never alias plain-run records of the same spec.

Probes run with causal capture on: every probe record carries the
provenance digest (critical-path length, per-primitive attribution) in
its ``causal`` field, which is what the fuzzer's causal coverage
signals bucket on. Captured or not, a record is a pure function of its
spec, so the salted cache and the parallel fan-out stay byte-identical
to serial runs.
"""

from __future__ import annotations

from ..analysis.axes import axis_fields
from ..analysis.batch import CellTemplate
from ..analysis.executor import RunSpec
from ..analysis.records import RunRecord
from ..errors import ReproError
from ..graphs.generators import make_family
from ..spanning.provider import build_spanning_tree

__all__ = ["probe_cell", "probe_cells", "PROBE_CACHE_SALT"]

#: Cache-key salt for probe batches (see :func:`repro.analysis.cache.cache_key`).
#: ``:2`` — probe records gained the causal capture digest, so they must
#: never alias pre-capture probe entries (or plain-run records).
PROBE_CACHE_SALT = "exploration-probe:2"


def probe_cell(spec: RunSpec) -> RunRecord:
    """Run one cell; protocol failures become ``outcome="error"`` records.

    Only :class:`~repro.errors.ReproError` subclasses are captured — the
    certified-or-raise contract means any of them here is a genuine
    counterexample (or harness misuse, which the oracle also flags).
    Everything else (``KeyboardInterrupt``, real crashes) propagates.
    """
    try:
        # the capturing twin of execute_cell: CellTemplate.run IS
        # run_single's implementation, plus a per-run causal capture
        return CellTemplate(spec, causal=True).run(spec.seed)
    except ReproError as exc:
        # re-derive the instance shape for the record; if the failure
        # originated here (bad family/method in a hand-edited artifact,
        # a startup build that raises) fall back to the spec's values so
        # the error still comes back as data, not as a dead worker pool
        try:
            graph = make_family(spec.family, spec.n, seed=spec.seed)
            startup = build_spanning_tree(
                graph, method=spec.initial_method, seed=spec.seed
            )
            n, m = graph.n, graph.m
            k0 = startup.tree.max_degree()
            startup_messages = (
                startup.report.total_messages if startup.report is not None else 0
            )
        except ReproError:
            n, m, k0, startup_messages = spec.n, 0, 0, 0
        return RunRecord(
            **axis_fields(spec),
            n=n,
            m=m,
            seed=spec.seed,
            k_initial=k0,
            k_final=k0,
            rounds=0,
            messages=0,
            causal_time=0,
            bits=0,
            max_msg_fields=0,
            startup_messages=startup_messages,
            outcome="error",
            extra={"error": f"{type(exc).__name__}: {exc}"},
        )


def probe_cells(cells) -> list[RunRecord]:
    """Batched probe: one seed-varying group through the multi-seed
    batch runner (:func:`repro.analysis.batch.run_cells`).

    A clean group produces exactly the per-cell records at batch speed.
    If *any* replica fails — a counterexample found mid-batch, a bad
    spec, a stall without a fault — the whole group is re-probed cell by
    cell, so every failure is captured as its own ``outcome="error"``
    record exactly as :func:`probe_cell` would. (Failure groups are the
    rare case by construction: exploration campaigns mostly confirm
    clean behavior.) Non-library errors propagate, as everywhere.
    """
    from ..analysis.batch import run_cells

    try:
        return run_cells(cells, causal=True)
    except ReproError:
        return [probe_cell(spec) for spec in cells]


#: executors route seed-varying probe groups through the batch runner
probe_cell.run_batch = probe_cells
