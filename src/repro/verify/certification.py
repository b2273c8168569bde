"""End-to-end certification of an MDegST run against the paper's claims."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SolverError, VerificationError
from ..mdst.result import MDSTResult
from ..sequential.bounds import rounds_within_claim
from ..sequential.exact import optimal_degree
from ..sequential.fuerer_raghavachari import Improvement, Witness, fr_phase
from .local_optimality import forest_has_no_crossing_edges
from .tree_checks import assert_degree_not_worse, assert_spanning_tree

__all__ = ["Certification", "certify_run"]


@dataclass(frozen=True)
class Certification:
    """Which of the paper's claims hold for one run.

    ``fr_phase`` is one Fürer–Raghavachari phase on the final tree: a
    checked :class:`~repro.sequential.Witness` proves k ≤ Δ* + 1 at any
    n, an :class:`~repro.sequential.Improvement` shows the tree is not
    certified. ``optimal`` and ``within_one_of_optimal`` are ground
    truth from the exact solver, ``None`` beyond its reach.
    """

    spanning_tree: bool
    degree_not_worse: bool
    fr_phase: Improvement | Witness
    optimal: int | None  # Δ* when computable
    within_one_of_optimal: bool | None  # final ≤ Δ* + 1 (None: unknown)
    rounds_within_claim: bool  # rounds ≤ 2·(k − k* + 1) + 2

    @property
    def all_structural(self) -> bool:
        return self.spanning_tree and self.degree_not_worse

    def summary(self) -> str:
        phase = self.fr_phase
        if isinstance(phase, Witness):
            fr_row = (
                f"F-R witness |W| = {len(phase.marked)}, c = {phase.components}:"
                f" Δ* ≥ {phase.lb}, so k ≤ Δ*+1",
                True,
            )
        else:
            fr_row = (
                f"F-R improvement found ({len(phase.swaps)} swap(s)):"
                " no Δ*+1 certificate",
                False,
            )
        rows = [
            ("spanning tree", self.spanning_tree),
            ("degree not worse", self.degree_not_worse),
            fr_row,
            ("within Δ*+1 (ground truth)", self.within_one_of_optimal),
            ("rounds within claim", self.rounds_within_claim),
        ]
        lines = [f"  {'PASS' if v else '----' if v is None else 'FAIL'}  {k}"
                 for k, v in rows]
        if self.optimal is not None:
            lines.append(f"        Δ* = {self.optimal}")
        return "\n".join(lines)


def certify_run(result: MDSTResult, exact_limit: int = 16) -> Certification:
    """Check one run against claims C1 and C4 (structural checks raise
    on failure, and so does a witness that fails the independent forest
    check; quality checks are reported, since the published stopping
    rule does not guarantee them on every instance — see
    :mod:`repro.sequential.local_search`)."""
    graph, tree = result.graph, result.final_tree
    assert_spanning_tree(graph, tree)
    assert_degree_not_worse(result.initial_tree, tree)
    phase = fr_phase(graph, tree)
    if isinstance(phase, Witness) and not (
        forest_has_no_crossing_edges(graph, tree, phase.marked)
        and phase.lb >= result.final_degree - 1
    ):
        raise VerificationError(f"F-R witness fails Theorem 1's check: {phase}")
    opt: int | None = None
    within: bool | None = None
    if graph.n <= exact_limit:
        try:
            opt = optimal_degree(graph, node_limit=exact_limit)
            within = result.final_degree <= opt + 1
        except SolverError:
            opt = None
    return Certification(
        spanning_tree=True,
        degree_not_worse=True,
        fr_phase=phase,
        optimal=opt,
        within_one_of_optimal=within,
        rounds_within_claim=rounds_within_claim(
            result.num_rounds, result.initial_degree, result.final_degree
        ),
    )
