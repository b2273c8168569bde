"""The run axes, declared once.

A run is fixed by ten axes — graph family, size, seed, startup tree,
protocol mode, delay model, algorithm, fault plan, scheduler policy and
churn plan. :data:`AXES` holds one :class:`Axis` per axis, and every
layer that names axes derives from it instead of spelling them out:

* spec validation — :class:`~repro.analysis.harness.SweepSpec`,
  :class:`~repro.scenarios.spec.ScenarioSpec`,
  :class:`~repro.exploration.cells.ExplorationCell`,
  :func:`~repro.exploration.cells.exploration_grid` and
  :class:`~repro.exploration.fuzz.FuzzSpec` all run :func:`checked`
  (or :func:`check_spec`) over their axis fields;
* records — :func:`axis_fields` copies a cell's axis values onto its
  :class:`~repro.analysis.records.RunRecord`;
* the CLI — every run-axis flag is generated from the table, with both
  spellings (``--churn`` / ``--churns``) and the table's ``check``.

An axis value is checked the same way at every entry point, so a typo
gets the same message from a spec constructor, a scenario document and
the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Any, Callable, Mapping, Sequence

from ..algorithms import ALGORITHMS, DEFAULT_ALGORITHM
from ..errors import AnalysisError
from ..graphs.generators import FAMILIES
from ..mdst.config import MODES
from ..sim.churn import CHURN_PLANS, NO_CHURN
from ..sim.delays import DELAYS
from ..sim.faults import FAULT_PLANS, NO_FAULT
from ..sim.scheduler import FALLBACKS, NO_SCHEDULER, SCHEDULERS, scheduler_from_name
from ..spanning.provider import INITIAL_METHODS

__all__ = [
    "Axis",
    "AXES",
    "AXIS",
    "FALLBACK",
    "checked",
    "check_spec",
    "axis_fields",
]


@dataclass(frozen=True)
class Axis:
    """One run axis: its names in every layer, its default, its check."""

    #: the :class:`~repro.analysis.executor.RunSpec` / ``RunRecord`` field
    field: str
    #: the ``SweepSpec`` / ``ScenarioSpec`` field holding the swept values
    plural: str
    #: singular and plural CLI spellings (``--flag`` / ``--flags``)
    flag: str
    flags: str
    #: what one value is called in messages ("unknown <label>")
    label: str
    #: one-line description for CLI help
    help: str
    #: the value of a single run that names none
    default: Any
    #: the valid names, read from the axis's name table; ``None`` marks
    #: an integer axis
    names: Callable[[], tuple[str, ...]] | None = None
    #: heading of the listing in ``repro families``
    title: str = ""
    #: smallest valid value of an integer axis
    minimum: int = 0
    #: values valid beyond ``names()`` (canonical replay schedules)
    accepts: Callable[[str], bool] | None = None
    #: what ``accepts`` admits, appended to the list of valid names
    hint: str = ""

    def check(self, value: Any) -> Any:
        """Return *value* if it is valid on this axis; raise
        :class:`AnalysisError` naming the valid values otherwise."""
        if self.names is None:
            if isinstance(value, Integral) and value >= self.minimum:
                return value
            raise AnalysisError(
                f"invalid choice: {value!r} "
                f"({self.plural} must be integers >= {self.minimum})"
            )
        names = self.names()
        if value in names or (
            self.accepts is not None
            and isinstance(value, str)
            and self.accepts(value)
        ):
            return value
        raise AnalysisError(
            f"invalid choice: {value!r} (unknown {self.label}; "
            f"choose from {', '.join(names)}{self.hint})"
        )

    def check_all(self, values: Sequence[Any]) -> tuple:
        """Check every value of a swept axis; return them as a tuple."""
        if isinstance(values, str) or not isinstance(values, (list, tuple)):
            raise AnalysisError(
                f"axis {self.plural!r} must be a list, got {values!r}"
            )
        if not values:
            raise AnalysisError(f"axis {self.plural!r} must be non-empty")
        return tuple(self.check(v) for v in values)


def _is_replay(value: str) -> bool:
    """Canonical ``replay:<fallback>[:<prefix>]`` schedules — not
    enumerable, so they are checked by parsing, not by listing."""
    if not value.startswith("replay:"):
        return False
    try:
        scheduler_from_name(value)
    except ValueError:
        return False
    return True


AXES: tuple[Axis, ...] = (
    Axis(
        "family", "families", "family", "families", "family",
        "workload graph family", "gnp_sparse",
        names=lambda: tuple(sorted(FAMILIES)), title="graph families",
    ),
    Axis(
        "n", "sizes", "n", "sizes", "size",
        "approximate node count", 24, minimum=1,
    ),
    Axis("seed", "seeds", "seed", "seeds", "seed", "instance seed", 0),
    Axis(
        "initial_method", "initial_methods", "initial", "initials",
        "initial method", "startup spanning-tree construction", "echo",
        names=lambda: tuple(INITIAL_METHODS),
        title="initial methods",
    ),
    Axis(
        "mode", "modes", "mode", "modes", "mode",
        "improvement mode", "concurrent",
        names=lambda: MODES, title="modes",
    ),
    Axis(
        "delay", "delays", "delay", "delays", "delay model",
        "delay model (inert under a scheduler policy)", "unit",
        names=lambda: tuple(sorted(DELAYS)), title="delay models",
    ),
    Axis(
        "algorithm", "algorithms", "algorithm", "algorithms", "algorithm",
        "distributed algorithm", DEFAULT_ALGORITHM,
        names=lambda: tuple(sorted(ALGORITHMS)), title="algorithms",
    ),
    Axis(
        "fault", "faults", "fault", "faults", "fault plan",
        "named fault plan; a stalled run is reported, not certified",
        NO_FAULT, names=lambda: tuple(sorted(FAULT_PLANS)), title="fault plans",
    ),
    Axis(
        "scheduler", "schedulers", "scheduler", "schedulers",
        "scheduler policy",
        "adversarial scheduler policy ordering deliveries",
        NO_SCHEDULER, names=lambda: tuple(sorted(SCHEDULERS)),
        title="scheduler policies",
        accepts=_is_replay,
        hint=", or a canonical replay:<fallback>[:<prefix>] schedule",
    ),
    Axis(
        "churn", "churns", "churn", "churns", "churn plan",
        "named mid-run churn plan: crash-restart or link-flap", NO_CHURN,
        names=lambda: tuple(sorted(CHURN_PLANS)), title="churn plans",
    ),
)

#: the table keyed by ``RunSpec`` field name
AXIS: dict[str, Axis] = {axis.field: axis for axis in AXES}

#: The policies a replay schedule hands over to past its prefix: a fuzz
#: campaign's ``fallbacks``. Not a run axis of its own — the chosen
#: fallback travels inside the scheduler value.
FALLBACK = Axis(
    "fallback", "fallbacks", "fallback", "fallbacks",
    "scheduler policy for a replay fallback",
    "fallback policies finishing a schedule past its replay prefix",
    "random",
    names=lambda: tuple(sorted(FALLBACKS)),
)


def checked(values: Mapping[str, Any]) -> dict[str, Any]:
    """Check every axis entry of *values*.

    Keys are ``RunSpec`` field names (one value) or plural spec-field
    names (a non-empty list of values); other keys are ignored. Returns
    the axis entries, plural ones as tuples.
    """
    out: dict[str, Any] = {}
    for axis in AXES:
        if axis.field in values:
            out[axis.field] = axis.check(values[axis.field])
        if axis.plural in values:
            out[axis.plural] = axis.check_all(values[axis.plural])
    return out


def check_spec(spec: Any) -> None:
    """Check a frozen spec dataclass's axis fields in place (plural ones
    normalized to tuples, so loaded lists keep the spec hashable)."""
    for name, value in checked(vars(spec)).items():
        object.__setattr__(spec, name, value)


def axis_fields(spec: Any) -> dict[str, Any]:
    """The values of *spec* a record copies verbatim: every axis but the
    instance shape (``n`` is the built graph's, ``seed`` the run's), plus
    ``max_rounds``."""
    out = {
        axis.field: getattr(spec, axis.field)
        for axis in AXES
        if axis.field not in ("n", "seed")
    }
    out["max_rounds"] = spec.max_rounds
    return out
