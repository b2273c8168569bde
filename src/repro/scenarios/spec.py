"""Declarative scenario & campaign specifications.

A :class:`ScenarioSpec` names one evaluation regime — a graph-family ×
size grid crossed with delay model, named fault plan, algorithm,
initial-tree method and seeds — the way Dinitz–Halldórsson and
Lavault–Valencia-Pabon frame their MDST evaluations (dense vs. sparse,
lossy, high-latency networks). A :class:`CampaignSpec` is an ordered
bundle of scenarios that runs as one unit and reports as one document.

Both are frozen dataclasses with eager validation (mirroring
:class:`~repro.analysis.harness.SweepSpec`, which a scenario lowers to
via :meth:`ScenarioSpec.sweep`): a typo'd family, delay, fault or
algorithm name fails at construction time with the valid choices
spelled out, not minutes into a campaign.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

from ..algorithms import DEFAULT_ALGORITHM
from ..analysis.axes import AXES, check_spec
from ..analysis.executor import RunSpec
from ..analysis.harness import SweepSpec
from ..errors import AnalysisError
from ..sim.churn import NO_CHURN
from ..sim.faults import NO_FAULT
from ..sim.scheduler import NO_SCHEDULER

__all__ = ["ScenarioSpec", "CampaignSpec"]

_NAME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9_\-]*$")


def _check_name(name: str, what: str) -> None:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise AnalysisError(
            f"bad {what} name {name!r}: need a letter followed by "
            "letters, digits, '_' or '-'"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, versionable evaluation regime.

    The axes are exactly the sweep axes plus identity (``name`` /
    ``description``); :meth:`sweep` lowers a scenario to the
    :class:`~repro.analysis.harness.SweepSpec` it denotes. Axis values
    are checked at construction, exactly as a sweep checks them.
    """

    name: str
    description: str = ""
    families: tuple[str, ...] = ("gnp_sparse",)
    sizes: tuple[int, ...] = (16,)
    seeds: tuple[int, ...] = (0, 1, 2)
    initial_methods: tuple[str, ...] = ("echo",)
    modes: tuple[str, ...] = ("concurrent",)
    delays: tuple[str, ...] = ("unit",)
    faults: tuple[str, ...] = (NO_FAULT,)
    schedulers: tuple[str, ...] = (NO_SCHEDULER,)
    churns: tuple[str, ...] = (NO_CHURN,)
    algorithms: tuple[str, ...] = (DEFAULT_ALGORITHM,)
    max_rounds: int | None = None

    def __post_init__(self) -> None:
        _check_name(self.name, "scenario")
        check_spec(self)

    def sweep(self) -> SweepSpec:
        """Lower to the sweep spec this scenario denotes."""
        return SweepSpec(
            max_rounds=self.max_rounds,
            **{axis.plural: getattr(self, axis.plural) for axis in AXES},
        )

    def cells(self) -> tuple[RunSpec, ...]:
        """Flatten into executor cells (stable order)."""
        return self.sweep().cells()

    @property
    def num_cells(self) -> int:
        return len(self.cells())

    def scaled(self, factor: int) -> "ScenarioSpec":
        """Copy with every size multiplied by *factor* (≥ 1)."""
        if factor < 1:
            raise AnalysisError(f"scale factor must be >= 1, got {factor}")
        return replace(self, sizes=tuple(n * factor for n in self.sizes))

    def tiny(self, max_n: int = 10) -> "ScenarioSpec":
        """Shrink to a smoke-test footprint: the smallest size (clamped
        to *max_n*) and the first seed, all other axes intact — the same
        regime, cheap enough for CI and the per-scenario smoke tests."""
        return replace(
            self,
            sizes=(min(min(self.sizes), max_n),),
            seeds=self.seeds[:1],
        )

    def to_json_dict(self) -> dict[str, Any]:
        data = asdict(self)
        if data["max_rounds"] is None:
            del data["max_rounds"]  # TOML has no null; omit everywhere
        return data

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        valid = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(valid))
        if unknown:
            raise AnalysisError(
                f"unknown scenario field(s) {unknown!r}; valid fields: {valid}"
            )
        try:
            return cls(**data)
        except TypeError as exc:  # e.g. missing "name", wrong value shapes
            raise AnalysisError(f"invalid scenario document: {exc}") from None


@dataclass(frozen=True)
class CampaignSpec:
    """An ordered bundle of scenarios run and reported as one unit."""

    name: str
    scenarios: tuple[ScenarioSpec, ...] = field(default=())
    description: str = ""

    def __post_init__(self) -> None:
        _check_name(self.name, "campaign")
        if not isinstance(self.scenarios, tuple):
            object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise AnalysisError("a campaign needs at least one scenario")
        seen: set[str] = set()
        for sc in self.scenarios:
            if not isinstance(sc, ScenarioSpec):
                raise AnalysisError(
                    f"campaign scenarios must be ScenarioSpec, got {type(sc).__name__}"
                )
            if sc.name in seen:
                raise AnalysisError(f"duplicate scenario name {sc.name!r}")
            seen.add(sc.name)

    @property
    def num_cells(self) -> int:
        return sum(sc.num_cells for sc in self.scenarios)

    def tiny(self, max_n: int = 10) -> "CampaignSpec":
        """Shrink every scenario (see :meth:`ScenarioSpec.tiny`)."""
        return replace(
            self, scenarios=tuple(sc.tiny(max_n) for sc in self.scenarios)
        )

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "scenarios": [sc.to_json_dict() for sc in self.scenarios],
        }

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "CampaignSpec":
        unknown = sorted(set(data) - {"name", "description", "scenarios"})
        if unknown:
            raise AnalysisError(
                f"unknown campaign field(s) {unknown!r}; "
                "valid fields: ['name', 'description', 'scenarios']"
            )
        raw = data.get("scenarios", ())
        if isinstance(raw, dict) or not isinstance(raw, (list, tuple)):
            raise AnalysisError(
                f"campaign 'scenarios' must be a list of tables, got {raw!r}"
            )
        if not all(isinstance(sc, dict) for sc in raw):
            raise AnalysisError("campaign 'scenarios' entries must be tables")
        scenarios = tuple(ScenarioSpec.from_json_dict(sc) for sc in raw)
        return cls(
            name=data.get("name", "campaign"),
            description=data.get("description", ""),
            scenarios=scenarios,
        )
