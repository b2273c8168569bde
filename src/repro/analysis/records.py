"""Experiment run records: flat, JSON-serializable, regenerable.

A :class:`RunRecord` captures everything a table row needs. Records are
pure functions of ``(spec, seed)`` — re-running a sweep with the same
parameters reproduces them bit-for-bit (simulator determinism).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from ..algorithms.registry import DEFAULT_ALGORITHM

__all__ = ["RunRecord", "save_records", "load_records"]


@dataclass(frozen=True)
class RunRecord:
    """One protocol run, flattened for analysis."""

    family: str
    n: int
    m: int
    seed: int
    initial_method: str
    mode: str
    delay: str
    k_initial: int
    k_final: int
    rounds: int
    messages: int
    causal_time: int
    bits: int
    max_msg_fields: int
    startup_messages: int = 0
    #: simulator events processed by the protocol run (the perf suite's
    #: primary work metric; 0 on stalled/error records and on records
    #: saved before the metric existed)
    events: int = 0
    max_rounds: int | None = None
    #: which registered algorithm produced the run (records saved before
    #: the registry existed load as the Blin–Butelle default)
    algorithm: str = DEFAULT_ALGORITHM
    #: named fault plan injected into the run ("none" = the paper's
    #: reliable model; see :func:`repro.sim.faults.fault_plan_from_name`)
    fault: str = "none"
    #: named scheduler policy that ordered deliveries ("none" = normal
    #: time-based scheduling; see
    #: :func:`repro.sim.scheduler.scheduler_from_name`). Recorded so two
    #: runs of the same spec under different schedules never alias —
    #: in tables, artifacts, or cache keys.
    scheduler: str = "none"
    #: named churn plan applied to the run ("none" = no mid-run churn;
    #: see :func:`repro.sim.churn.churn_plan_from_name`). Records saved
    #: before the churn axis existed load as churn-free.
    churn: str = "none"
    #: "ok" for a certified run; "stalled" when an injected fault or a
    #: stranding churn plan made the protocol stall loudly (metrics
    #: fields are then zeroed and ``k_final`` repeats ``k_initial`` —
    #: no improvement was certified)
    outcome: str = "ok"
    #: causal provenance digest (critical-path length, per-primitive
    #: message/bit attribution — see
    #: :meth:`repro.sim.provenance.CausalTally.summary`). Populated by
    #: capture-enabled drivers (exploration probes, ``--causal-out``);
    #: empty for uncaptured runs and records saved before the layer
    #: existed. Like every field, a pure function of ``(spec, seed)``.
    causal: dict[str, Any] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    @property
    def degree_drop(self) -> int:
        return self.k_initial - self.k_final

    @property
    def messages_normalized(self) -> float:
        """Messages divided by (k − k* + 1)·m — claim C2's constant."""
        return self.messages / ((self.degree_drop + 1) * max(self.m, 1))

    @property
    def time_normalized(self) -> float:
        """Causal time divided by (k − k* + 1)·n — claim C3's constant."""
        return self.causal_time / ((self.degree_drop + 1) * max(self.n, 1))

    def to_json_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "RunRecord":
        return cls(**data)


def save_records(records: list[RunRecord], path: str | Path) -> None:
    """Write records as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict()) + "\n")


def load_records(path: str | Path) -> list[RunRecord]:
    """Read records from JSON lines."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(RunRecord.from_json_dict(json.loads(line)))
    return out
