"""Warm-up + min-of-k monotonic timing.

Wall-clock numbers in a shared container are noisy in one direction:
interference only ever makes a run *slower*. The standard defense (see
pyperf's docs and the hpc guides) is to discard warm-up iterations —
allocator pools, branch predictors and interpreter caches settle — and
report the **minimum** over k measured repeats, which estimates the
noise-free cost. The full sample is kept so :mod:`repro.perf.stats` can
attach its spread (median/IQR).

The timed calls run with every object that exists before them frozen
out of the cyclic garbage collector (``gc.freeze``): a full collection
owed to whatever the process allocated earlier would otherwise land in
a timed call — with ``--warmup 0`` in the first and only one.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from ..errors import AnalysisError
from .stats import iqr, median

__all__ = ["TimingSample", "time_callable"]


@dataclass(frozen=True)
class TimingSample:
    """Measured repeats of one callable (post warm-up), in seconds."""

    seconds: tuple[float, ...]
    warmup: int

    def __post_init__(self) -> None:
        if not self.seconds:
            raise AnalysisError("a timing sample needs at least one repeat")

    @property
    def repeats(self) -> int:
        return len(self.seconds)

    @property
    def best(self) -> float:
        """Min-of-k: the noise-floor estimate the paired speed verdict compares."""
        return min(self.seconds)

    @property
    def median(self) -> float:
        return median(self.seconds)

    @property
    def iqr(self) -> float:
        return iqr(self.seconds)


def time_callable(
    fn: Callable[[], Any],
    *,
    repeats: int = 3,
    warmup: int = 1,
) -> tuple[TimingSample, list[Any]]:
    """Run *fn* ``warmup + repeats`` times; time the last *repeats*.

    Returns the sample together with every call's return value (warm-up
    calls included, in call order) — the suite runner uses the returned
    work metrics to enforce that a bench's work is identical on every
    repetition. The timed calls run under ``gc.freeze``; the frozen
    objects are released again however the loop ends.
    """
    if repeats < 1:
        raise AnalysisError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise AnalysisError(f"warmup must be >= 0, got {warmup}")
    results: list[Any] = []
    for _ in range(warmup):
        results.append(fn())
    seconds = []
    gc.freeze()
    try:
        for _ in range(repeats):
            start = perf_counter()
            results.append(fn())
            seconds.append(perf_counter() - start)
    finally:
        gc.unfreeze()
    return TimingSample(seconds=tuple(seconds), warmup=warmup), results
