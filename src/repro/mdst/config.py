"""Configuration of the distributed MDegST run."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MDSTConfig", "MODES"]

#: Valid protocol modes for CLI choices and sweep-spec validation.
MODES: tuple[str, ...] = ("concurrent", "single")


@dataclass(frozen=True)
class MDSTConfig:
    """Tunable behaviour of the protocol.

    Attributes
    ----------
    mode:
        ``"concurrent"`` — faithful §3.2.6 behaviour: every maximum-degree
        node acts as a cutter in the same round (exchange candidates are
        restricted to pairs of fragments cut by the *same* node, which
        makes concurrent exchanges provably independent).
        ``"single"`` — exactly one maximum-degree node (minimum identity,
        skipping known-stuck ones) improves per round; simpler, more
        rounds, same stopping quality.
    polish:
        In concurrent mode, when a round yields no improvement anywhere,
        continue with single-target rounds before terminating (recovers
        the cross-region exchanges the same-cutter restriction skips).
        Ignored in single mode.
    max_rounds:
        Optional hard cap on rounds (safety net for experiments); ``None``
        means unbounded — the simulator's event budget still applies.
    """

    mode: str = "concurrent"
    polish: bool = True
    max_rounds: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1 when set")
