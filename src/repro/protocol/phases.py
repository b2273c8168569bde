"""Phase sequencing and completion barriers for coordinator-driven rounds.

:class:`CountdownBarrier` is the round barrier of §3.2.6: the coordinator
knows how many participants owe a report and releases the round
transition exactly when the last one arrives (an extra arrival is a
protocol violation, not a silent double-fire).

:class:`PhaseSequencer` names the ordered phases of a round and stamps
each phase it enters onto the causal capture; ``require`` turns "this
message belongs to phase X" into an explicit, loud protocol check.
"""

from __future__ import annotations

from collections.abc import Callable

from ..errors import ProtocolError
from ..sim import provenance

__all__ = ["CountdownBarrier", "PhaseSequencer"]


class CountdownBarrier:
    """Fire a callback when exactly *count* arrivals have been seen."""

    __slots__ = ("remaining", "_on_complete", "name")

    def __init__(
        self, count: int, on_complete: Callable[[], None], name: str = "barrier"
    ) -> None:
        if count < 1:
            raise ProtocolError(f"{name}: barrier needs a positive count")
        self.remaining = count
        self._on_complete = on_complete
        self.name = name

    def arrive(self) -> None:
        if provenance.ACTIVE is not None:
            provenance.stamp("barrier")
        if self.remaining <= 0:
            raise ProtocolError(f"{self.name}: arrival after barrier release")
        self.remaining -= 1
        if self.remaining == 0:
            self._on_complete()


class PhaseSequencer:
    """Ordered phase names of a round.

    ``advance()`` moves to the next phase (wrapping to the first, i.e. a
    new round); ``require(phase)`` raises
    :class:`~repro.errors.ProtocolError` when a message arrives outside
    the phase it belongs to.
    """

    __slots__ = ("phases", "index")

    def __init__(self, phases: tuple[str, ...]) -> None:
        if not phases:
            raise ProtocolError("sequencer needs at least one phase")
        self.phases = phases
        self.index = 0

    @property
    def current(self) -> str:
        return self.phases[self.index]

    def advance(self) -> str:
        """Enter the next phase (wrapping)."""
        self.index = (self.index + 1) % len(self.phases)
        phase = self.phases[self.index]
        if provenance.ACTIVE is not None:
            provenance.stamp("sequencer")
            provenance.stamp_phase(phase)
        return phase

    def reset(self) -> None:
        """Jump back to the first phase."""
        self.index = 0
        if provenance.ACTIVE is not None:
            provenance.stamp("sequencer")
            provenance.stamp_phase(self.phases[0])

    def require(self, phase: str, what: str = "message") -> None:
        if self.current != phase:
            raise ProtocolError(
                f"{what} arrived in phase {self.current!r}, expected {phase!r}"
            )
