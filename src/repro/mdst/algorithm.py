"""Top-level runner: wire a graph + initial tree into the simulator, run
the MDegST protocol to termination, extract and certify the result.

:func:`build_protocol` and :func:`run_protocol` are that sequence for
any registered algorithm; :func:`build_mdst` and :func:`run_mdst` bind it
to the MDegST process."""

from __future__ import annotations

from typing import Callable

from ..errors import NotConnectedError, ProtocolError, ReproError, StallError
from ..graphs.graph import Graph
from ..graphs.traversal import is_connected
from ..graphs.trees import RootedTree
from ..sim.delays import DelayModel
from ..sim.faults import FaultPlan, wrap_factory
from ..sim.metrics import SimulationReport
from ..sim.monitors import parent_pointers_form_forest
from ..sim.network import Network
from ..sim.provenance import CausalTally
from ..sim.scheduler import SchedulerPolicy
from ..sim.trace import TraceRecorder
from ..spanning.provider import build_spanning_tree
from .config import MDSTConfig
from .node import make_mdst_factory
from .result import MDSTResult, RoundInfo

__all__ = [
    "run_mdst",
    "build_mdst",
    "run_protocol",
    "build_protocol",
    "trivial_result",
    "finalize_protocol_run",
    "extract_final_tree",
    "rounds_from_marks",
]

#: ``(net, finalize)``: ``net`` is ``None`` when there is nothing to
#: simulate, and ``finalize(report)`` certifies and packages the outcome
Built = tuple[Network | None, Callable[[SimulationReport | None], MDSTResult]]


def run_mdst(
    graph: Graph,
    initial_tree: RootedTree | None = None,
    *,
    max_events: int = 5_000_000,
    **options,
) -> MDSTResult:
    """Run the distributed MDegST algorithm of Blin & Butelle on *graph*.

    The keyword *options* are those of :func:`build_mdst`; *max_events*
    bounds the simulation.

    Returns
    -------
    MDSTResult
        Final tree + per-round log + simulation metrics, already
        certified: the output is a spanning tree of *graph* whose degree
        never exceeds the initial tree's.
    """
    return run_protocol(
        build_mdst, graph, initial_tree, max_events=max_events, **options
    )


def build_mdst(
    graph: Graph,
    initial_tree: RootedTree | None = None,
    *,
    config: MDSTConfig | None = None,
    **options,
) -> Built:
    """The build half of :func:`run_mdst` (see :func:`build_protocol`).

    config:
        Protocol options (:class:`MDSTConfig`); defaults to the faithful
        concurrent mode with single-target polish.
    """
    cfg = config or MDSTConfig()
    return build_protocol(
        graph,
        initial_tree,
        lambda parents: make_mdst_factory(parents, cfg),
        name="MDegST",
        **options,
    )


def run_protocol(
    build: Callable[..., Built],
    graph: Graph,
    initial_tree: RootedTree | None = None,
    *,
    max_events: int = 5_000_000,
    **options,
) -> MDSTResult:
    """Build with *build*, run the network to quiescence and finalize: the
    one-call form of any ``(net, finalize)`` build function."""
    net, finalize = build(graph, initial_tree, **options)
    report = net.run(max_events=max_events) if net is not None else None
    return finalize(report)


def build_protocol(
    graph: Graph,
    initial_tree: RootedTree | None,
    make_factory: Callable[[dict[int, int | None]], Callable],
    *,
    name: str,
    initial_method: str = "echo",
    seed: int = 0,
    delay: DelayModel | None = None,
    trace: TraceRecorder | None = None,
    check_invariants: bool = False,
    faults: FaultPlan | None = None,
    scheduler: SchedulerPolicy | None = None,
    causal: CausalTally | None = None,
) -> Built:
    """Validate inputs and construct the network of one protocol run.

    Returns ``(net, finalize)``, where ``finalize(report)`` certifies and
    packages the protocol outcome. ``net`` is ``None`` for the trivial
    ``n <= 2`` case (nothing to simulate; ``finalize`` then ignores its
    argument). The split form lets a caller drive and time ``net.run()``
    itself; :func:`run_protocol` is build + run + finalize.

    Parameters
    ----------
    make_factory:
        Maps the initial tree's parent map to the per-node process
        factory of the protocol named *name*.
    initial_tree:
        The startup spanning tree (§3.1). When ``None`` it is built with
        :func:`repro.spanning.build_spanning_tree` using
        *initial_method* (its construction cost is **not** included in
        the returned report, matching the paper's accounting).
    seed / delay:
        Delay-model seeding; the default is the paper's unit-delay
        analysis assumption.
    check_invariants:
        Attach the parent-forest monitor (every instant of the run must
        exhibit acyclic parent pointers). Slows big runs; used by tests.
    faults:
        Optional :data:`~repro.sim.faults.FaultPlan` wrapped around the
        process factory. The paper assumes reliable channels and
        non-crashing processors, so a fault never yields a silently
        corrupt result: the run either completes certified or raises
        :class:`~repro.errors.ProtocolError` /
        :class:`~repro.errors.TerminationError`.
    scheduler:
        Optional :class:`~repro.sim.scheduler.SchedulerPolicy` that takes
        over delivery ordering (adversarial schedule exploration); the
        *delay* model is then bypassed.
    causal:
        Optional :class:`~repro.sim.provenance.CausalTally` (or full
        :class:`~repro.sim.provenance.CausalCapture`) recording
        per-message provenance on the protocol network (the startup
        spanning-tree construction is excluded, matching the paper's
        accounting — and this report's ``causal_time``).
    """
    if graph.n == 0:
        raise ReproError("empty graph")
    # a given spanning tree proves the graph connected, so connectivity
    # is searched only without one, or to name the error when it fails
    if initial_tree is None or not initial_tree.is_spanning_tree_of(graph):
        if not is_connected(graph):
            raise NotConnectedError(f"{name} requires a connected network")
        if initial_tree is None:
            initial_tree = build_spanning_tree(
                graph, method=initial_method, seed=seed
            ).tree
        if not initial_tree.is_spanning_tree_of(graph):
            raise ReproError("initial_tree is not a spanning tree of graph")

    if graph.n <= 2:
        # nothing to optimize: a single node or a single edge
        result = trivial_result(graph, initial_tree)
        return None, lambda report: result

    factory = make_factory(initial_tree.parent_map())
    if faults:
        factory = wrap_factory(factory, faults)
    monitors = [parent_pointers_form_forest()] if check_invariants else []
    net = Network(
        graph,
        factory,
        delay=delay,
        seed=seed,
        trace=trace,
        monitors=monitors,
        scheduler=scheduler,
        causal=causal,
    )
    tree = initial_tree
    return net, lambda report: finalize_protocol_run(net, graph, tree, report)


def trivial_result(graph: Graph, initial_tree: RootedTree) -> MDSTResult:
    """Result for graphs with nothing to optimize (n <= 2): the initial
    tree is final and the report is all zeros."""
    report = SimulationReport(
        events_processed=0,
        quiescent=True,
        total_messages=0,
        total_bits=0,
        by_type={},
        max_id_fields=0,
        causal_time=0,
        sim_time=0.0,
        marks=(),
    )
    return MDSTResult(
        graph=graph,
        initial_tree=initial_tree,
        final_tree=initial_tree,
        rounds=(),
        report=report,
    )


def finalize_protocol_run(
    net: Network,
    graph: Graph,
    initial_tree: RootedTree,
    report: SimulationReport,
) -> MDSTResult:
    """Extract + certify the final tree off a quiescent network — the
    shared epilogue of every registered algorithm (and of both the
    per-cell and batched drive paths)."""
    final_tree = extract_final_tree(net, graph)
    rounds = rounds_from_marks(report)
    if final_tree.max_degree() > initial_tree.max_degree():
        raise ProtocolError(
            "final degree exceeds initial degree "
            f"({final_tree.max_degree()} > {initial_tree.max_degree()})"
        )
    return MDSTResult(
        graph=graph,
        initial_tree=initial_tree,
        final_tree=final_tree,
        rounds=rounds,
        report=report,
    )


def extract_final_tree(net: Network, graph: Graph) -> RootedTree:
    """Read the final tree off any protocol whose processes expose
    ``parent`` / ``children`` / ``terminated`` (shared by every algorithm
    in :mod:`repro.algorithms`), with full post-hoc certification."""
    parents: dict[int, int | None] = {}
    roots = []
    for u, proc in net.processes.items():
        if not proc.terminated:
            # a stall (quiescent but unfinished), not a corrupted tree —
            # StallError lets fault/churn harnesses flatten it loudly
            raise StallError(f"node {u} never terminated")
        parents[u] = proc.parent
        if proc.parent is None:
            roots.append(u)
        elif not graph.has_edge(u, proc.parent):
            raise ProtocolError(f"node {u} has non-edge parent {proc.parent}")
    if len(roots) != 1:
        raise ProtocolError(f"expected one root, got {roots}")
    tree = RootedTree(roots[0], parents)
    if tree.n != graph.n:
        raise ProtocolError("final tree does not span the graph")
    # parent/children views must agree
    for u, proc in net.processes.items():
        if set(proc.children) != tree.children(u):
            raise ProtocolError(
                f"node {u}: children view {sorted(proc.children)} != "
                f"{sorted(tree.children(u))}"
            )
    return tree


def rounds_from_marks(report: SimulationReport) -> tuple[RoundInfo, ...]:
    """Pair the root's round / round_end marks into RoundInfo entries.

    Per-round message counts come from the ``_messages_so_far`` stamps the
    metrics layer adds to dict-valued marks: a round's cost is the counter
    delta between consecutive round-start marks (the tail round extends to
    the end of the run).
    """
    starts: list[dict] = []
    ends: dict[int, int] = {}
    for _t, label, value in report.marks:
        if label == "round":
            starts.append(dict(value))  # type: ignore[arg-type]
        elif label == "round_end":
            info = dict(value)  # type: ignore[arg-type]
            ends[info["index"]] = info["improved"]
    out = []
    for i, s in enumerate(starts):
        begin = s.get("_messages_so_far", 0)
        if i + 1 < len(starts):
            end = starts[i + 1].get("_messages_so_far", begin)
        else:
            end = report.total_messages
        out.append(
            RoundInfo(
                index=s["index"],
                k=s["k"],
                mode=s["mode"],
                cutters=s["cutters"],
                improved=ends.get(s["index"], 0),
                messages=max(0, end - begin),
            )
        )
    return tuple(out)
