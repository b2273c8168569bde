"""Fault injection for the simulator.

The paper's model (§2) assumes *reliable* channels and non-crashing
processors — its protocol has no retransmission or failure detection.
This module lets tests demonstrate that the assumption is load-bearing:
inject a fault, observe that the protocol stalls (caught by the event
budget or the termination monitor) instead of silently corrupting the
tree. Faults are applied at the process layer, so any protocol can be
wrapped without modification.

* :func:`crash_after` — the node processes its first *count* events and
  then goes silent (crash-stop);
* :func:`drop_messages` — a deterministic fraction of the node's
  *outgoing* sends are dropped (lossy link);
* :func:`FaultPlan` — per-node mapping of wrappers applied by
  :func:`wrap_factory`.

Named fault plans
-----------------
Like the delay models (:data:`repro.sim.delays.DELAYS`), the table
:data:`FAULT_PLANS` makes whole fault plans spec-addressable: a name plus ``(n, seed)``
deterministically expands to a :data:`FaultPlan`, so sweeps, scenario
files and cache keys can carry "which faults" as a plain string axis
(``RunSpec.fault``). Every plan is deterministic in ``(name, n, seed)``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from ..errors import lookup
from ..rng import substream
from .messages import Message
from .node import NodeContext, Process

__all__ = [
    "FaultPlan",
    "wrap_factory",
    "crash_after",
    "drop_messages",
    "NO_FAULT",
    "FAULT_PLANS",
    "fault_plan_from_name",
]

#: A fault is a wrapper applied to a freshly built process.
Fault = Callable[[Process], Process]
FaultPlan = Mapping[int, Fault]


def wrap_factory(factory: Callable[[NodeContext], Process], plan: FaultPlan):
    """Wrap *factory* so nodes named in *plan* get their fault applied."""

    def wrapped(ctx: NodeContext) -> Process:
        proc = factory(ctx)
        fault = plan.get(ctx.node_id)
        return fault(proc) if fault is not None else proc

    return wrapped


def crash_after(count: int) -> Fault:
    """Crash-stop after handling *count* events (0 = never starts)."""

    def fault(proc: Process) -> Process:
        handled = 0
        orig_start = proc.on_start
        orig_message = proc.on_message

        def on_start() -> None:
            nonlocal handled
            if handled >= count:
                return
            handled += 1
            orig_start()

        def on_message(sender: int, msg: Message) -> None:
            nonlocal handled
            if handled >= count:
                return  # crashed: silently swallow
            handled += 1
            orig_message(sender, msg)

        proc.on_start = on_start  # type: ignore[method-assign]
        proc.on_message = on_message  # type: ignore[method-assign]
        return proc

    return fault


def drop_messages(probability: float, seed: int = 0) -> Fault:
    """Drop each *outgoing* message independently with *probability*."""
    if not (0.0 <= probability <= 1.0):
        raise ValueError("probability must be in [0, 1]")

    def fault(proc: Process) -> Process:
        rng = substream(seed, f"drop:{proc.node_id}:{probability}")
        orig_send = proc.ctx.send

        def send(dst: int, msg: Message) -> None:
            if rng.random() >= probability:
                orig_send(dst, msg)

        proc.ctx.send = send  # type: ignore[method-assign]
        proc.send = send  # keep the process's prebound alias in sync
        return proc

    return fault


# -- named fault plans ---------------------------------------------------------

#: A named plan expands to a concrete FaultPlan given the network size
#: and the run seed (node identities are assumed to be 0..n-1, which
#: every generator in :mod:`repro.graphs.generators` guarantees).
FaultPlanFactory = Callable[[int, int], FaultPlan]

#: The distinguished no-op plan name (the default everywhere).
NO_FAULT = "none"


def _plan_none(n: int, seed: int) -> FaultPlan:
    return {}


def _plan_crash_one(n: int, seed: int) -> FaultPlan:
    """One mid-network node crash-stops after a few handled events."""
    if n < 2:
        return {}
    victim = n // 2
    return {victim: crash_after(3)}


def _plan_crash_storm(n: int, seed: int) -> FaultPlan:
    """A quarter of the nodes (at least two) crash-stop early, each after
    a seed-dependent number of handled events in [1, 5]."""
    if n < 3:
        return {}
    rng = substream(seed, f"fault:crash_storm:{n}")
    count = max(2, n // 4)
    victims = sorted(int(v) for v in rng.choice(n, size=count, replace=False))
    return {v: crash_after(1 + int(rng.integers(5))) for v in victims}


def _plan_lossy_light(n: int, seed: int) -> FaultPlan:
    """Every node independently drops 5% of its outgoing messages — small
    enough that some runs squeak through, demonstrating the certify-or-
    stall dichotomy."""
    return {u: drop_messages(0.05, seed=seed) for u in range(n)}


def _plan_lossy_heavy(n: int, seed: int) -> FaultPlan:
    """Every node drops 25% of its outgoing messages (runs essentially
    always stall — the reliability assumption is load-bearing)."""
    return {u: drop_messages(0.25, seed=seed) for u in range(n)}


#: Fault-plan name -> plan factory (``none`` included).
FAULT_PLANS: dict[str, FaultPlanFactory] = {
    NO_FAULT: _plan_none,
    "crash_one": _plan_crash_one,
    "crash_storm": _plan_crash_storm,
    "lossy_light": _plan_lossy_light,
    "lossy_heavy": _plan_lossy_heavy,
}


def fault_plan_from_name(name: str, n: int, seed: int = 0) -> FaultPlan:
    """Expand a named plan for an *n*-node network."""
    return lookup(FAULT_PLANS, name, "fault plan")(n, seed)
