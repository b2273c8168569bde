"""End-to-end certification of an MDegST run against the paper's claims."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SolverError
from ..mdst.result import MDSTResult
from ..sequential.bounds import rounds_within_claim
from ..sequential.exact import optimal_degree
from .local_optimality import certified_within_one, is_locally_optimal
from .tree_checks import assert_degree_not_worse, assert_spanning_tree

__all__ = ["Certification", "certify_run"]


@dataclass(frozen=True)
class Certification:
    """Which of the paper's claims hold for one run.

    ``optimal`` is ``None`` when the instance exceeds the exact solver's
    reach; ``within_one_of_optimal`` is then judged by the F-R
    certificate instead of ground truth.
    """

    spanning_tree: bool
    degree_not_worse: bool
    locally_optimal: bool  # Theorem-1 condition, B = all (k−1)-vertices
    fr_certificate: bool  # full F-R fixpoint (sufficient for +1)
    optimal: int | None  # Δ* when computable
    within_one_of_optimal: bool | None  # final ≤ Δ* + 1 (None: unknown)
    rounds_within_claim: bool  # rounds ≤ 2·(k − k* + 1) + 2

    @property
    def all_structural(self) -> bool:
        return self.spanning_tree and self.degree_not_worse

    def summary(self) -> str:
        rows = [
            ("spanning tree", self.spanning_tree),
            ("degree not worse", self.degree_not_worse),
            ("locally optimal (B = all k−1)", self.locally_optimal),
            ("F-R certificate (⇒ ≤ Δ*+1)", self.fr_certificate),
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
    on failure; quality checks are reported, since the published stopping
    rule does not guarantee them on every instance — see
    :mod:`repro.sequential.local_search`)."""
    assert_spanning_tree(result.graph, result.final_tree)
    assert_degree_not_worse(result.initial_tree, result.final_tree)
    lot = is_locally_optimal(result.graph, result.final_tree)
    fr = certified_within_one(result.graph, result.final_tree)
    opt: int | None = None
    within: bool | None = None
    if result.graph.n <= exact_limit:
        try:
            opt = optimal_degree(result.graph, node_limit=exact_limit)
            within = result.final_degree <= opt + 1
        except SolverError:
            opt = None
    if within is None and fr:
        within = True  # certified without ground truth
    return Certification(
        spanning_tree=True,
        degree_not_worse=True,
        locally_optimal=lot,
        fr_certificate=fr,
        optimal=opt,
        within_one_of_optimal=within,
        rounds_within_claim=rounds_within_claim(
            result.num_rounds, result.initial_degree, result.final_degree
        ),
    )
