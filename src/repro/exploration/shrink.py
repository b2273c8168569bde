"""Delta-debugging shrinker: minimize a failing exploration cell.

Zeller-style ddmin specialised to the cell's three search coordinates,
in fixed priority order:

1. **n** — smallest failing instance size (scan upward from the
   3-node floor: probes at small n are the cheap ones, and the first
   hit is by construction the minimum; sizes the family cannot be
   built at, such as a 3-node wheel, are skipped);
2. **seed** — smallest failing seed in ``[0, seed)``;
3. **churn** — a bug that fires without mid-run churn beats one that
   needs a churn plan, so the churn-free cell is tried first;
4. **scheduler** — simplest failing policy, where "simpler" is the fixed
   ladder ``none < fifo < lifo < starve < random`` (a bug that fires
   under time-based or deterministic scheduling beats one needing a
   seeded random walk); replay spec strings rank after every registered
   name;
5. **replay prefix** — for a ``replay:...`` schedule, the shortest
   still-failing choice-prefix (upward scan, so the first hit is the
   minimum), with the fallback policy untouched.

Each candidate is probed serially (memoized — the fixpoint passes never
re-run a cell they already judged) and kept only if the oracle still
fails; coordinate passes repeat until a fixpoint, so a seed reduction
that re-opens an n reduction is found. Everything is deterministic —
shrinking the same cell always yields the same minimum — and bounded by
*max_probes* (the count of distinct candidate runs, reported alongside
the result).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AnalysisError, GraphError
from ..graphs.generators import make_family
from ..sim.churn import NO_CHURN
from ..sim.scheduler import (
    NO_SCHEDULER,
    is_replay_spec,
    parse_replay_spec,
    replay_spec,
    scheduler_names,
)
from .cells import ExplorationCell
from .explorer import ExplorationResult, explore_one
from .oracle import EXACT_LIMIT

__all__ = ["ShrinkOutcome", "shrink"]

#: Simplicity ladder for the scheduler coordinate; registered policies
#: missing from the ladder sort after it, alphabetically.
_POLICY_LADDER = (NO_SCHEDULER, "fifo", "lifo", "starve", "random")

_MIN_N = 3  # below this every protocol takes the trivial no-op path


def _policy_rank(name: str) -> tuple[int, str]:
    try:
        return (_POLICY_LADDER.index(name), name)
    except ValueError:
        return (len(_POLICY_LADDER), name)


@dataclass(frozen=True)
class ShrinkOutcome:
    """A minimized counterexample plus how it was reached."""

    original: ExplorationCell
    result: ExplorationResult  # the *minimized* failing probe
    probes: int  # candidate re-runs spent

    @property
    def cell(self) -> ExplorationCell:
        return self.result.cell


def shrink(
    cell: ExplorationCell,
    *,
    exact_limit: int = EXACT_LIMIT,
    max_probes: int = 200,
) -> ShrinkOutcome:
    """Minimize *cell* to the smallest still-failing (n, seed, policy).

    Raises :class:`~repro.errors.AnalysisError` if *cell* does not fail
    in the first place — a shrinker fed a passing cell is a harness bug.
    """
    current = explore_one(cell, exact_limit=exact_limit)
    if current.ok:
        raise AnalysisError(
            f"cannot shrink a passing cell: {cell.canonical()}"
        )
    probes = 0
    # memoize probed candidates so repeat passes of the fixpoint loop
    # never spend budget re-running a cell they already judged
    memo: dict[str, ExplorationResult | None] = {cell.canonical(): current}

    def still_fails(candidate: ExplorationCell) -> ExplorationResult | None:
        nonlocal probes
        key = candidate.canonical()
        if key in memo:
            return memo[key]
        if probes >= max_probes:
            return None
        try:
            make_family(candidate.family, candidate.n, seed=candidate.seed)
        except GraphError:
            # the family has no instance of this size: not a counterexample
            memo[key] = None
            return None
        probes += 1
        result = explore_one(candidate, exact_limit=exact_limit)
        memo[key] = result if not result.ok else None
        return memo[key]

    changed = True
    while changed and probes < max_probes:
        changed = False

        # 1. smallest failing n (upward scan: first hit is the minimum)
        for n in range(_MIN_N, current.cell.n):
            hit = still_fails(current.cell.with_(n=n))
            if hit is not None:
                current = hit
                changed = True
                break

        # 2. smallest failing seed
        for seed in range(0, current.cell.seed):
            hit = still_fails(current.cell.with_(seed=seed))
            if hit is not None:
                current = hit
                changed = True
                break

        # 3. churn-free beats churned
        if current.cell.churn != NO_CHURN:
            hit = still_fails(current.cell.with_(churn=NO_CHURN))
            if hit is not None:
                current = hit
                changed = True

        # 4. simplest failing scheduler policy
        ladder = sorted(scheduler_names(), key=_policy_rank)
        for policy in ladder:
            if _policy_rank(policy) >= _policy_rank(current.cell.scheduler):
                break
            hit = still_fails(current.cell.with_(scheduler=policy))
            if hit is not None:
                current = hit
                changed = True
                break

        # 5. shortest failing replay prefix (fallback untouched)
        if is_replay_spec(current.cell.scheduler):
            prefix, fallback = parse_replay_spec(current.cell.scheduler)
            for k in range(len(prefix)):
                shorter = replay_spec(prefix[:k], fallback)
                hit = still_fails(current.cell.with_(scheduler=shorter))
                if hit is not None:
                    current = hit
                    changed = True
                    break

    return ShrinkOutcome(original=cell, result=current, probes=probes)
