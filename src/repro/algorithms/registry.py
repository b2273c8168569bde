"""Pluggable distributed-MDST algorithms: the :data:`ALGORITHMS` table.

The reproduction started as a single-protocol codebase (`run_mdst`, the
Blin–Butelle MDegST protocol). The table turns it into a comparison
platform: every algorithm is a named entry of :data:`ALGORITHMS` whose
only code is its per-node process factory, so the sweep harness, the CLI
(``--algorithm``, ``repro compare``) and the property tests can treat
"which algorithm" as just another experiment axis.

Runner contract
---------------
An entry is ``Algorithm(name, description, factory)``, where
``factory(parents, *, mode, max_rounds)`` maps the initial tree's parent
map to the per-node process factory (usually
:func:`~repro.protocol.rounds.process_factory` over an
:class:`~repro.protocol.rounds.ImprovementProcess` subclass). Everything
else is shared: :meth:`Algorithm.build` wires the factory into
:func:`~repro.mdst.algorithm.build_protocol` and :meth:`Algorithm.run`
is build + ``net.run`` + finalize, with the keyword surface

``run(graph, initial_tree=None, *, initial_method="echo",
mode="concurrent", max_rounds=None, seed=0, delay=None, trace=None,
check_invariants=False, max_events=..., faults=None, scheduler=None,
causal=None) -> MDSTResult``

A factory is free to ignore ``mode`` (the FR-style protocol has no
concurrent mode), but must accept it so a sweep grid can cross
algorithms with the other axes. ``faults`` is a
:data:`~repro.sim.faults.FaultPlan` wrapped around the process factory
(named plans expand via :func:`repro.sim.faults.fault_plan_from_name`);
a faulty run must either complete certified or raise — never return a
corrupt tree. ``scheduler`` is an optional
:class:`~repro.sim.scheduler.SchedulerPolicy` that takes over delivery
ordering (named policies expand via
:func:`repro.sim.scheduler.scheduler_from_name`); the same
certified-or-raise contract must hold under any policy. ``causal`` is an
optional :class:`~repro.sim.provenance.CausalTally` attached to the
protocol network (not the startup construction), so run forensics cover
every registered algorithm uniformly.

Every algorithm in the table claims the paper's quality target, Δ* + 1
(:func:`repro.sequential.fr_quality_guarantee`); the property suite and
the exploration oracle check each against it on exactly solved
instances.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..errors import lookup
from ..mdst.algorithm import Built, build_protocol
from ..mdst.config import MDSTConfig
from ..mdst.node import MDSTProcess
from ..mdst.result import MDSTResult
from ..protocol.rounds import process_factory
from ..sim.node import NodeContext, Process
from .fr_local import FRProcess

__all__ = [
    "Algorithm",
    "ALGORITHMS",
    "DEFAULT_ALGORITHM",
    "run_algorithm",
]

DEFAULT_ALGORITHM = "blin_butelle"


@dataclass(frozen=True)
class Algorithm:
    """One distributed MDST algorithm: a name, a one-line
    description and the per-node process factory (see the module
    docstring's runner contract)."""

    name: str
    description: str
    factory: Callable[..., Callable[[NodeContext], Process]] = field(repr=False)

    def build(
        self,
        graph,
        initial_tree=None,
        *,
        mode: str = "concurrent",
        max_rounds: int | None = None,
        **options,
    ) -> Built:
        """Build half of :meth:`run`: ``(net, finalize)``, so a caller can
        drive ``net.run()`` itself and time the stages apart (the
        ``perfbench`` layer ledger does). The keyword *options* are those
        of :func:`~repro.mdst.algorithm.build_protocol`."""
        return build_protocol(
            graph,
            initial_tree,
            lambda parents: self.factory(parents, mode=mode, max_rounds=max_rounds),
            name=self.name,
            **options,
        )

    def run(
        self, graph, initial_tree=None, *, max_events: int = 5_000_000, **options
    ) -> MDSTResult:
        """Build, run the network to quiescence (at most *max_events*)
        and finalize: a certified :class:`~repro.mdst.result.MDSTResult`."""
        net, finalize = self.build(graph, initial_tree, **options)
        return finalize(None if net is None else net.run(max_events))


def _blin_butelle(parents, *, mode: str, max_rounds: int | None):
    return process_factory(
        MDSTProcess, parents, config=MDSTConfig(mode=mode, max_rounds=max_rounds)
    )


def _fr_local(parents, *, mode: str, max_rounds: int | None):
    del mode  # one schedule; accepted so sweep grids can cross the mode axis
    return process_factory(FRProcess, parents, max_rounds=max_rounds)


#: Algorithm name -> entry.
ALGORITHMS: dict[str, Algorithm] = {
    algo.name: algo
    for algo in (
        Algorithm(
            "blin_butelle",
            "Blin & Butelle MDegST: migrating round root, concurrent "
            "same-cutter exchanges with single-target polish",
            _blin_butelle,
        ),
        Algorithm(
            "fr_local",
            "Fürer–Raghavachari-style local improvement: fixed "
            "coordinator, one full-fragment improvement step per round",
            _fr_local,
        ),
    )
}


def run_algorithm(name: str, graph, initial_tree=None, **kwargs) -> MDSTResult:
    """Dispatch one run to the named algorithm's runner."""
    return lookup(ALGORITHMS, name, "algorithm").run(graph, initial_tree, **kwargs)
