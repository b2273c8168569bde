"""Exploration cells: one differential probe = one cell.

An :class:`ExplorationCell` names everything the harness needs to replay
one adversarial-schedule probe: the instance ``(family, n, seed)``, the
schedule (``scheduler`` policy or the time-based ``delay`` model when the
policy is ``"none"``) and the *set* of algorithms run on the identical
instance for the cross-algorithm oracle. A cell expands to one
:class:`~repro.analysis.executor.RunSpec` per algorithm, so a batch of
cells flattens into a single executor batch — the same Serial / Parallel
/ Caching backends that power sweeps and campaigns fan exploration out.

Cells are frozen, JSON-round-trippable and totally ordered by their
canonical JSON — the shrinker and the counterexample artifacts depend on
a cell being a *value*.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ..analysis.axes import AXES, check_spec, checked
from ..analysis.executor import RunSpec
from ..errors import AnalysisError
from ..sim.churn import NO_CHURN
from ..sim.scheduler import NO_SCHEDULER

__all__ = ["ExplorationCell", "exploration_grid", "tiny_grid", "DEFAULT_ALGORITHMS"]

#: The differential pair: every registered algorithm claims a final
#: degree within Δ*+1, so on the same instance their results may differ
#: by at most one.
DEFAULT_ALGORITHMS: tuple[str, ...] = ("blin_butelle", "fr_local")


@dataclass(frozen=True)
class ExplorationCell:
    """One (instance × schedule × algorithm-set) probe.

    Every axis field is checked at construction (see
    :mod:`repro.analysis.axes`), so a typo'd name fails here instead of
    coming back as a counterexample."""

    family: str
    n: int
    seed: int
    scheduler: str = NO_SCHEDULER
    #: time-based delay model used when ``scheduler == "none"`` (inert
    #: otherwise); exponential delays are the classic reorder pressure
    delay: str = "unit"
    initial_method: str = "random"
    mode: str = "concurrent"
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    #: named churn plan (see :func:`repro.sim.churn.churn_plan_from_name`);
    #: cells saved before the churn axis existed load as churn-free
    churn: str = NO_CHURN

    def __post_init__(self) -> None:
        check_spec(self)

    def run_specs(self) -> tuple[RunSpec, ...]:
        """One executor cell per algorithm, identical instance/schedule
        (a cell has every other axis but ``fault``: probes run
        fault-free)."""
        shared = {
            axis.field: getattr(self, axis.field)
            for axis in AXES
            if hasattr(self, axis.field)
        }
        return tuple(
            RunSpec(algorithm=algorithm, **shared) for algorithm in self.algorithms
        )

    def to_json_dict(self) -> dict[str, Any]:
        # every field is a str, an int or a tuple of str: a shallow copy
        # is what ``dataclasses.asdict`` would deep-copy
        data = dict(self.__dict__)
        data["algorithms"] = list(self.algorithms)
        return data

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "ExplorationCell":
        try:
            cell = cls(**{**data, "algorithms": tuple(data["algorithms"])})
        except (TypeError, KeyError) as exc:
            raise AnalysisError(f"invalid exploration cell: {exc}") from None
        return cell

    def canonical(self) -> str:
        """Stable one-line JSON (artifact identity and ordering key)."""
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def with_(self, **changes: Any) -> "ExplorationCell":
        """Frozen-copy update (the shrinker's and the mutation engine's
        single primitive). Only the changed axes are checked again: the
        rest were checked when *self* was built."""
        unknown = changes.keys() - self.__dataclass_fields__.keys()
        if unknown:
            raise TypeError(f"ExplorationCell has no field {sorted(unknown)[0]!r}")
        cell = object.__new__(ExplorationCell)
        cell.__dict__.update(self.__dict__, **changes)
        cell.__dict__.update(checked(changes))
        return cell


def exploration_grid(
    *,
    families: tuple[str, ...] = ("gnp_sparse",),
    sizes: tuple[int, ...] = (6, 8, 10),
    seeds: tuple[int, ...] = tuple(range(8)),
    schedulers: tuple[str, ...] = ("lifo", "random", "starve"),
    delays: tuple[str, ...] = ("unit",),
    churns: tuple[str, ...] = (NO_CHURN,),
    initial_method: str = "random",
    mode: str = "concurrent",
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
) -> tuple[ExplorationCell, ...]:
    """Flatten an exploration grid into cells (stable order).

    The ``delays`` axis only multiplies the ``scheduler == "none"``
    cells — under a policy the delay model is bypassed, so crossing it
    with policies would enumerate duplicate schedules.
    """
    checked(locals())  # every axis parameter, before any cell is built
    cells = []
    for family in families:
        for n in sizes:
            for scheduler in schedulers:
                cell_delays = delays if scheduler == NO_SCHEDULER else delays[:1]
                for delay in cell_delays:
                    for churn in churns:
                        for seed in seeds:
                            cells.append(
                                ExplorationCell(
                                    family=family,
                                    n=n,
                                    seed=seed,
                                    scheduler=scheduler,
                                    delay=delay,
                                    initial_method=initial_method,
                                    mode=mode,
                                    algorithms=algorithms,
                                    churn=churn,
                                )
                            )
    return tuple(cells)


def tiny_grid() -> tuple[ExplorationCell, ...]:
    """The CI smoke grid: small enough to finish in seconds, adversarial
    enough that the mutation self-test's injected cutter-gate bug is
    found (pinned by ``tests/test_exploration.py``)."""
    return exploration_grid(
        families=("gnp_sparse",),
        sizes=(6, 8),
        seeds=tuple(range(6)),
        schedulers=("none", "lifo", "random"),
        delays=("exponential",),
    )
