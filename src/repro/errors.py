"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
downstream users can catch one type. Sub-hierarchies mirror the package
layout (graphs / simulator / protocols / analysis).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TypeVar

_Entry = TypeVar("_Entry")


class ReproError(Exception):
    """Base class of all library errors."""


class UnknownNameError(ReproError, ValueError):
    """A name that its table (graph families, delay models, algorithms,
    fault plans, ...) does not hold. Also a :class:`ValueError`, the
    builtin type for a bad argument value."""


def lookup(table: Mapping[str, _Entry], name: str, what: str) -> _Entry:
    """The entry of *table* named *name*, or :class:`UnknownNameError`
    naming *what* a name denotes and every valid name.

    Every named choice of the library is a plain dict from name to
    entry, read through this one function."""
    try:
        return table[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown {what} {name!r}; choose from {', '.join(sorted(table))}"
        ) from None


class GraphError(ReproError):
    """Invalid graph construction or query (unknown node, self-loop, ...)."""


class NotConnectedError(GraphError):
    """An operation required a connected graph but got a disconnected one."""


class NotATreeError(GraphError):
    """A structure claimed to be a (spanning) tree fails validation."""


class SimulationError(ReproError):
    """Simulator misuse or internal inconsistency."""


class ChannelError(SimulationError):
    """Message sent on a non-existent link or to an unknown neighbor."""


class SchedulingError(SimulationError):
    """Event queue misuse (negative delay, event in the past, ...)."""


class ProtocolError(ReproError):
    """A distributed protocol reached a state that violates its invariants."""


class TerminationError(ProtocolError):
    """A protocol failed to terminate (hit the step/eventcount safety cap)."""


class StallError(ProtocolError):
    """The network went quiescent with non-terminated nodes.

    A *stall*: no events remain but some process never reached its
    terminated state — the "protocol gives up loudly" half of the
    certify-or-stall dichotomy under fault and churn plans. Kept
    distinct from other :class:`ProtocolError` conditions (which signal
    *corruption*: a structurally wrong tree or an invariant violation)
    so harnesses can flatten stalls to ``outcome="stalled"`` while
    still propagating corruption as a failure.
    """


class VerificationError(ReproError):
    """A post-hoc verification (spanning tree, local optimality) failed."""


class AnalysisError(ReproError):
    """Experiment harness misuse (bad sweep spec, empty record set, ...)."""


class SolverError(ReproError):
    """Exact solver infeasibility or size-limit violations."""
