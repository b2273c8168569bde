"""Link-delay models.

The paper's algorithm is *event-driven* (no timeouts), so its correctness
must be independent of message delays; only the complexity analysis assumes
delays ≤ 1 time unit. The models here let the experiments (a) reproduce the
analysis assumption (:class:`UnitDelay`), (b) randomize schedules
(:class:`UniformDelay`, :class:`ExponentialDelay`), and (c) skew schedules
adversarially (:class:`PerLinkDelay`, where some links are consistently
slow — the classic way to force reordering bugs out of hiding).

Every model is deterministic in ``(seed, link, sequence number)``. A
random model creates its stream at :meth:`DelayModel.bind` (or, used
unbound, at its first sample, as seed 0), so constructing one — to
validate a name, say — costs no generator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..errors import lookup
from ..rng import substream

__all__ = [
    "DelayModel",
    "UnitDelay",
    "UniformDelay",
    "ExponentialDelay",
    "PerLinkDelay",
    "DELAYS",
    "delay_model_from_name",
]


class DelayModel(ABC):
    """Strategy that assigns a latency to each (directed) message."""

    @abstractmethod
    def bind(self, seed: int) -> None:
        """Re-seed internal streams; called once by the network at build
        time so that model instances can be reused across runs."""

    @abstractmethod
    def sample(self, src: int, dst: int) -> float:
        """Latency (> 0) of the next message on directed link src→dst."""

    @property
    def name(self) -> str:
        return type(self).__name__


class UnitDelay(DelayModel):
    """Every message takes exactly one time unit — the assumption under
    which the paper computes time complexity."""

    def bind(self, seed: int) -> None:  # stateless
        return None

    def sample(self, src: int, dst: int) -> float:
        return 1.0


class UniformDelay(DelayModel):
    """i.i.d. uniform latencies in ``[lo, hi]``."""

    def __init__(self, lo: float = 0.1, hi: float = 1.0) -> None:
        if not (0 < lo <= hi):
            raise ValueError(f"need 0 < lo <= hi, got [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self._label = f"uniform:{lo}:{hi}"
        self._rng = None

    def bind(self, seed: int) -> None:
        self._rng = substream(seed, self._label)

    def sample(self, src: int, dst: int) -> float:
        rng = self._rng
        if rng is None:  # unbound: the seed-0 stream
            rng = self._rng = substream(0, self._label)
        return float(rng.uniform(self.lo, self.hi))


class ExponentialDelay(DelayModel):
    """i.i.d. exponential latencies (heavy reordering pressure), clipped
    below at *floor* to stay positive."""

    def __init__(self, mean: float = 1.0, floor: float = 1e-3) -> None:
        if mean <= 0:
            raise ValueError("mean must be positive")
        self.mean = mean
        self.floor = floor
        self._label = f"exp:{mean}"
        self._rng = None

    def bind(self, seed: int) -> None:
        self._rng = substream(seed, self._label)

    def sample(self, src: int, dst: int) -> float:
        rng = self._rng
        if rng is None:  # unbound: the seed-0 stream
            rng = self._rng = substream(0, self._label)
        return max(self.floor, float(rng.exponential(self.mean)))


class PerLinkDelay(DelayModel):
    """Each directed link gets a fixed latency drawn once from
    ``[lo, hi]`` — consistently fast and slow paths, the adversarial
    schedule shaper used by experiment A2."""

    def __init__(self, lo: float = 0.1, hi: float = 10.0) -> None:
        if not (0 < lo <= hi):
            raise ValueError(f"need 0 < lo <= hi, got [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self._seed = 0
        self._cache: dict[tuple[int, int], float] = {}

    def bind(self, seed: int) -> None:
        self._seed = seed
        self._cache.clear()

    def sample(self, src: int, dst: int) -> float:
        key = (src, dst)
        if key not in self._cache:
            rng = substream(self._seed, f"link:{src}:{dst}:{self.lo}:{self.hi}")
            self._cache[key] = float(rng.uniform(self.lo, self.hi))
        return self._cache[key]


#: Delay-model name -> model class, for CLI choices and sweep specs.
DELAYS: dict[str, type[DelayModel]] = {
    "unit": UnitDelay,
    "uniform": UniformDelay,
    "exponential": ExponentialDelay,
    "perlink": PerLinkDelay,
}


def delay_model_from_name(name: str) -> DelayModel:
    """Factory used by the CLI / sweep specs."""
    return lookup(DELAYS, name, "delay model")()
