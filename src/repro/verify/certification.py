"""The judge of a finished run, and ``repro certify``'s rendering of it.

:func:`judge` is the one quality check behind every record: one
Fürer–Raghavachari phase on the final tree (the paper's reference [3])
and one lower bound on Δ*. A :class:`~repro.sequential.Witness` proves
k ≤ Δ* + 1 at any n once its set bound reaches k − 1; an
:class:`~repro.sequential.Improvement` means the tree is not certified.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SolverError, VerificationError
from ..graphs.graph import Graph
from ..graphs.properties import min_degree_lower_bound, set_bound
from ..graphs.trees import RootedTree
from ..mdst.result import MDSTResult
from ..sequential.bounds import rounds_within_claim
from ..sequential.exact import optimal_degree
from ..sequential.fuerer_raghavachari import Witness, fr_phase
from .tree_checks import assert_degree_not_worse, assert_spanning_tree

__all__ = ["Judgement", "judge", "certify_run"]


@dataclass(frozen=True)
class Judgement:
    """What one F-R phase and the set bound say about a final tree.

    ``lb`` is a lower bound on Δ*: the largest set bound over the
    singletons, V, the witness, the tree's vertices of degree ≥ k − 1 and
    the graph's of degree ≥ k. A certified tree has k ≤ lb + 1 ≤ Δ* + 1.
    """

    lb: int
    fr_improvable: bool


def judge(graph: Graph, tree: RootedTree, *, graph_bound: int | None = None) -> Judgement:
    """Run one F-R phase on *tree* and bound Δ* from below; raise
    :class:`VerificationError` if a witness's set bound is below k − 1,
    which Theorem 1 rules out for a valid witness. *graph_bound* is
    ``min_degree_lower_bound(graph)`` when the caller already has it
    (it depends on the graph alone)."""
    phase = fr_phase(graph, tree)
    k = tree.max_degree()
    witness = phase.marked if isinstance(phase, Witness) else None
    edges = graph.edges()
    bounds = {
        s: set_bound(graph, s, edges=edges)
        for s in {
            witness or frozenset(),
            frozenset(v for v in tree.nodes() if tree.degree(v) >= k - 1),
            frozenset(v for v in graph.nodes() if graph.degree(v) >= k),
        }
    }
    if witness is not None and bounds[witness] < k - 1:
        raise VerificationError(f"F-R witness proves only Δ* ≥ {bounds[witness]} < k − 1")
    if graph_bound is None:
        graph_bound = min_degree_lower_bound(graph)
    return Judgement(max(graph_bound, *bounds.values()), witness is None)


def certify_run(result: MDSTResult, exact_limit: int = 16) -> str:
    """``repro certify``'s report on one run: the structural checks
    (which raise on failure), the :class:`Judgement`, ground truth from
    the exact solver up to *exact_limit* nodes, and claim C4's round
    count. The quality rows are reported, not raised, since the
    published stopping rule does not guarantee them on every instance
    (see :mod:`repro.sequential.local_search`)."""
    graph, tree = result.graph, result.final_tree
    assert_spanning_tree(graph, tree)
    assert_degree_not_worse(result.initial_tree, tree)
    judgement = judge(graph, tree)
    if judgement.fr_improvable:
        fr_row = (f"F-R improvement found: no Δ*+1 certificate (Δ* ≥ {judgement.lb})", False)
    else:
        fr_row = (f"F-R witness: Δ* ≥ {judgement.lb}, so k ≤ Δ*+1", True)
    opt: int | None = None
    if graph.n <= exact_limit:
        try:
            opt = optimal_degree(graph, node_limit=exact_limit)
        except SolverError:
            pass
    rows = [
        fr_row,
        (
            "within Δ*+1 (ground truth)",
            None if opt is None else result.final_degree <= opt + 1,
        ),
        (
            "rounds within claim",
            rounds_within_claim(
                result.num_rounds, result.initial_degree, result.final_degree
            ),
        ),
    ]
    lines = [f"  {'PASS' if v else '----' if v is None else 'FAIL'}  {k}"
             for k, v in rows]
    if opt is not None:
        lines.append(f"        Δ* = {opt}")
    return "\n".join(lines)
