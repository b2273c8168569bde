"""Pluggable distributed-MDST algorithm registry.

The reproduction started as a single-protocol codebase (`run_mdst`, the
Blin–Butelle MDegST protocol). The registry turns it into a comparison
platform: every algorithm is a named entry with a uniform runner
signature and a *claimed* quality bound, so the sweep harness, the CLI
(``--algorithm``, ``repro compare``) and the property tests can treat
"which algorithm" as just another experiment axis.

Runner contract
---------------
``run(graph, initial_tree=None, *, initial_method="echo",
mode="concurrent", max_rounds=None, seed=0, delay=None, trace=None,
check_invariants=False, max_events=..., faults=None, scheduler=None,
causal=None) -> MDSTResult``

Algorithms are free to ignore knobs that do not apply to them (e.g. the
FR-style protocol has no concurrent mode), but must accept them so a
sweep grid can cross algorithms with the other axes. ``faults`` is a
:data:`~repro.sim.faults.FaultPlan` wrapped around the process factory
(named plans expand via :func:`repro.sim.faults.fault_plan_from_name`);
a faulty run must either complete certified or raise — never return a
corrupt tree. ``scheduler`` is an optional
:class:`~repro.sim.scheduler.SchedulerPolicy` that takes over delivery
ordering (named policies expand via
:func:`repro.sim.scheduler.scheduler_from_name`); the same
certified-or-raise contract must hold under any policy. ``causal`` is an
optional :class:`~repro.sim.provenance.CausalTally` the runner must
attach to its protocol network (not the startup construction), so run
forensics cover every registered algorithm uniformly.

``degree_bound(opt, n)`` states the certified worst-case final degree on
a graph with optimum ``opt`` and ``n`` nodes; the property suite checks
every registered algorithm against it on exhaustively solved instances.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from ..errors import ReproError

__all__ = [
    "Algorithm",
    "DEFAULT_ALGORITHM",
    "algorithm_names",
    "get_algorithm",
    "register_algorithm",
    "run_algorithm",
]

DEFAULT_ALGORITHM = "blin_butelle"


@dataclass(frozen=True)
class Algorithm:
    """One registered distributed MDST algorithm."""

    name: str
    run: Callable[..., Any] = field(repr=False)
    description: str
    #: (opt, n) -> certified maximum final tree degree
    degree_bound: Callable[[int, int], int] = field(repr=False)
    #: optional build half of ``run``: same keyword surface minus
    #: ``max_events``, returning ``(net, finalize)`` so a caller can
    #: drive ``net.run()`` itself and time the stages apart (the
    #: ``perfbench`` layer ledger does). ``None`` means the algorithm
    #: only supports the monolithic ``run`` path.
    build: Callable[..., Any] | None = field(repr=False, default=None)


_REGISTRY: dict[str, Algorithm] = {}


def register_algorithm(algo: Algorithm, *, replace: bool = False) -> Algorithm:
    """Add *algo* to the registry (``replace=True`` to overwrite)."""
    if not algo.name or not algo.name.replace("_", "").isalnum():
        raise ReproError(f"bad algorithm name {algo.name!r}")
    if algo.name in _REGISTRY and not replace:
        raise ReproError(f"algorithm {algo.name!r} already registered")
    _REGISTRY[algo.name] = algo
    return algo


def algorithm_names() -> tuple[str, ...]:
    """Sorted names of every registered algorithm."""
    return tuple(sorted(_REGISTRY))


def get_algorithm(name: str) -> Algorithm:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown algorithm {name!r}; registered algorithms: "
            f"{', '.join(algorithm_names()) or '(none)'}"
        ) from None


def run_algorithm(name: str, graph, initial_tree=None, **kwargs):
    """Dispatch one run to the named algorithm's runner."""
    return get_algorithm(name).run(graph, initial_tree, **kwargs)


def _register_builtin_blin() -> None:
    from ..mdst.algorithm import build_mdst, run_protocol
    from ..mdst.config import MDSTConfig

    def _build_blin(
        graph,
        initial_tree=None,
        *,
        mode: str = "concurrent",
        max_rounds: int | None = None,
        **options,
    ):
        config = MDSTConfig(mode=mode, max_rounds=max_rounds)
        return build_mdst(graph, initial_tree, config=config, **options)

    register_algorithm(
        Algorithm(
            name="blin_butelle",
            run=partial(run_protocol, _build_blin),
            description=(
                "Blin & Butelle MDegST: migrating round root, concurrent "
                "same-cutter exchanges with single-target polish"
            ),
            # terminates only when no max-degree node has a direct
            # improvement — the same fixpoint class as sequential F-R
            degree_bound=lambda opt, n: opt + 1,
            build=_build_blin,
        )
    )


_register_builtin_blin()
