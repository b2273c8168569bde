"""Differential oracle: is one explored cell a counterexample?

Composes every check the repo can make *without* trusting the algorithm
under test, mirroring :mod:`repro.verify`:

* **run integrity** — the runner's built-in certification (spanning
  tree, parent/children agreement, degree never worse) surfaces as an
  ``outcome != "ok"`` probe record; any such record fails the cell;
* **claimed degree bound** — on instances the exact solver can reach,
  each algorithm's final degree is checked against the claimed Δ*+1
  (:func:`~repro.sequential.fr_quality_guarantee`), and against Δ*
  itself from below: a "better than optimal" tree means the tree is not
  real;
* **cross-algorithm agreement** — every registered algorithm claims a
  final degree within Δ*+1, so two algorithms on the identical instance
  may differ by at most one even when n is too big to solve exactly.

Verdicts are values (frozen, JSON-round-trippable, deterministic in the
cell), which is what lets the regression corpus pin them byte-for-byte.

Δ* comes from the per-process instance memo
(:func:`repro.analysis.batch.instance`): a campaign re-probes the same
``(family, n, seed)`` instance under many schedules, and the exact solve
runs once per instance and limit. The memoized graph is shared and
read-only; the solver only reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..analysis.batch import instance
from ..analysis.records import RunRecord
from ..errors import AnalysisError, SolverError
from ..sequential.bounds import fr_quality_guarantee
from .cells import ExplorationCell

__all__ = ["Verdict", "check_cell", "EXACT_LIMIT"]

#: Default largest n the oracle solves exactly (the solver's comfortable
#: range; beyond it the cross-algorithm check still applies).
EXACT_LIMIT = 12


@dataclass(frozen=True)
class Verdict:
    """The oracle's judgement of one explored cell.

    ``failures`` are short machine codes (stable across runs — the
    regression corpus compares them byte-for-byte); ``details`` are the
    matching human-readable lines, same order.
    """

    ok: bool
    failures: tuple[str, ...] = ()
    details: tuple[str, ...] = ()
    #: the exact optimum Δ* when the solver reached the instance, else
    #: ``None``. A *derived convenience* for consumers (the fuzzer's
    #: ``near_bound`` coverage signal buckets on it), not part of the
    #: judgement: excluded from equality and from the JSON artifact so
    #: every pinned corpus verdict stays byte-identical.
    opt: int | None = field(default=None, compare=False)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "failures": list(self.failures),
            "details": list(self.details),
        }

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "Verdict":
        try:
            return cls(
                ok=bool(data["ok"]),
                failures=tuple(data["failures"]),
                details=tuple(data["details"]),
            )
        except (KeyError, TypeError) as exc:
            raise AnalysisError(f"invalid verdict document: {exc}") from None


def check_cell(
    cell: ExplorationCell,
    records: Sequence[RunRecord],
    *,
    exact_limit: int = EXACT_LIMIT,
) -> Verdict:
    """Judge one cell from its probe records (one per cell algorithm)."""
    if len(records) != len(cell.algorithms):
        raise AnalysisError(
            f"cell has {len(cell.algorithms)} algorithms but "
            f"{len(records)} records"
        )
    failures: list[str] = []
    details: list[str] = []

    def fail(code: str, detail: str) -> None:
        failures.append(code)
        details.append(detail)

    for algorithm, record in zip(cell.algorithms, records):
        if record.algorithm != algorithm or record.seed != cell.seed:
            raise AnalysisError(
                f"record/cell mismatch: expected {algorithm} seed {cell.seed}, "
                f"got {record.algorithm} seed {record.seed}"
            )
        if record.outcome == "stalled" and cell.churn != "none":
            # the certify-or-stall dichotomy under churn: a stranding
            # plan legitimately stalls the run (loudly); only the checks
            # on completed runs below apply to this cell
            pass
        elif record.outcome != "ok":
            fail(
                f"run_failed:{algorithm}",
                f"{algorithm}: run did not complete certified "
                f"({record.extra.get('error', record.outcome)})",
            )
        elif record.k_final > record.k_initial:
            # unreachable through the certified runners; kept because the
            # oracle must not trust them
            fail(
                f"degree_regression:{algorithm}",
                f"{algorithm}: final degree {record.k_final} exceeds "
                f"initial {record.k_initial}",
            )

    ok_records = [r for r in records if r.outcome == "ok"]

    opt: int | None = None
    if cell.n <= exact_limit:
        try:
            opt = instance(cell.family, cell.n, cell.seed).optimum(exact_limit)
        except SolverError:
            opt = None
    if opt is not None:
        bound = fr_quality_guarantee(opt)
        for record in ok_records:
            if record.k_final > bound:
                fail(
                    f"degree_bound:{record.algorithm}",
                    f"{record.algorithm}: final degree {record.k_final} "
                    f"exceeds claimed bound {bound} (Δ* = {opt})",
                )
            if record.k_final < opt:
                fail(
                    f"below_optimum:{record.algorithm}",
                    f"{record.algorithm}: final degree {record.k_final} "
                    f"below the optimum {opt} — the tree cannot be real",
                )

    if len(ok_records) >= 2:
        degrees = {r.algorithm: r.k_final for r in ok_records}
        spread = max(degrees.values()) - min(degrees.values())
        if spread > 1:
            fail(
                "disagreement",
                "cross-algorithm disagreement beyond the shared Δ*+1 "
                f"claim: {degrees}",
            )

    return Verdict(
        ok=not failures,
        failures=tuple(failures),
        details=tuple(details),
        opt=opt,
    )
