"""The judge of a finished run, and ``repro certify``'s rendering of it.

:func:`judge` is the one quality check behind every record: one
Fürer–Raghavachari phase on the final tree (the paper's reference [3]).
A :class:`~repro.sequential.Witness` proves k ≤ Δ* + 1 at any n once it
passes Theorem 1's independent forest check; an
:class:`~repro.sequential.Improvement` means the tree is not certified.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SolverError, VerificationError
from ..graphs.graph import Graph
from ..graphs.properties import min_degree_lower_bound
from ..graphs.trees import RootedTree
from ..mdst.result import MDSTResult
from ..sequential.bounds import rounds_within_claim
from ..sequential.exact import optimal_degree
from ..sequential.fuerer_raghavachari import Witness, fr_phase
from .local_optimality import forest_has_no_crossing_edges
from .tree_checks import assert_degree_not_worse, assert_spanning_tree

__all__ = ["Judgement", "judge", "certify_run"]


@dataclass(frozen=True)
class Judgement:
    """What one F-R phase says about a final tree.

    ``lb`` is a lower bound on Δ*: the larger of the witness's and the
    cut-vertex bound's, or the cut-vertex bound alone when the tree is
    ``fr_improvable``. A certified tree has k ≤ lb + 1 ≤ Δ* + 1.
    """

    lb: int
    fr_improvable: bool


def judge(graph: Graph, tree: RootedTree) -> Judgement:
    """Run one F-R phase on *tree* and re-check its witness; raise
    :class:`VerificationError` if the witness fails Theorem 1's check or
    proves less than k − 1."""
    phase = fr_phase(graph, tree)
    cut_lb = min_degree_lower_bound(graph)
    if not isinstance(phase, Witness):
        return Judgement(lb=cut_lb, fr_improvable=True)
    if not (
        forest_has_no_crossing_edges(graph, tree, phase.marked)
        and phase.lb >= tree.max_degree() - 1
    ):
        raise VerificationError(f"F-R witness fails Theorem 1's check: {phase}")
    return Judgement(lb=max(phase.lb, cut_lb), fr_improvable=False)


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
        fr_row = (
            f"F-R improvement found: no Δ*+1 certificate"
            f" (Δ* ≥ {judgement.lb} by cut vertices)",
            False,
        )
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
