"""Robust summary statistics for timing samples.

Timing distributions are small-sample and right-skewed (interference
adds one-sided noise), so the summaries here are order statistics —
median and interquartile range. No scipy; the quantile rule is the
common linear-interpolation one (numpy's default).

:func:`paired_verdict` is the one speed verdict: two sides timed in
alternating pairs, judged by the win count and the median gap against
the reference side's own quartile spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import AnalysisError

__all__ = ["median", "iqr", "quantile", "PairedVerdict", "paired_verdict"]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of *values* (0 <= q <= 1)."""
    if not values:
        raise AnalysisError("quantile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise AnalysisError(f"quantile level must be in [0, 1], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def iqr(values: Sequence[float]) -> float:
    """Interquartile range — the spread summary next to the median."""
    return quantile(values, 0.75) - quantile(values, 0.25)


@dataclass(frozen=True)
class PairedVerdict:
    """Side B's timings judged against side A's, pair by pair."""

    a_median: float
    b_median: float
    #: pairs in which B (resp. A) was strictly faster; ties count for neither
    b_wins: int
    a_wins: int
    pairs: int
    #: A's quartile spread — the noise the median gap must exceed
    spread: float

    @property
    def ratio(self) -> float:
        """B's median over A's (below 1: B is faster)."""
        return self.b_median / self.a_median

    @property
    def verdict(self) -> str:
        """``"faster"`` / ``"slower"`` for B, or ``"unresolved"``.

        B is faster when it wins at least nine tenths of the pairs and
        its median is below A's by more than A's quartile spread; slower
        is the mirror image. Anything else is not a measured difference.
        """
        gap = self.b_median - self.a_median
        if 10 * self.b_wins >= 9 * self.pairs and -gap > self.spread:
            return "faster"
        if 10 * self.a_wins >= 9 * self.pairs and gap > self.spread:
            return "slower"
        return "unresolved"


def paired_verdict(a: Sequence[float], b: Sequence[float]) -> PairedVerdict:
    """Judge *b* against *a*, where ``a[i]`` and ``b[i]`` ran as pair *i*."""
    if not a or len(a) != len(b):
        raise AnalysisError(
            f"paired timings need equal, non-empty sides, got {len(a)} and {len(b)}"
        )
    return PairedVerdict(
        a_median=median(a),
        b_median=median(b),
        b_wins=sum(1 for x, y in zip(a, b) if y < x),
        a_wins=sum(1 for x, y in zip(a, b) if x < y),
        pairs=len(a),
        spread=iqr(a),
    )
