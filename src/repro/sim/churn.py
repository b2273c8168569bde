"""Mid-run churn for the simulator: crash-restart nodes and flapping links.

The fault axis (:mod:`repro.sim.faults`) breaks the paper's reliability
assumption *permanently* — a crashed node stays crashed, a lossy link
stays lossy. Churn breaks it *temporarily*: a node goes down and comes
back, a link flaps and recovers. The crucial difference is that lossless
churn is schedule-equivalent to admissible asynchrony — events held
while a node is down are replayed **in arrival order** on rejoin, so
per-link FIFO is preserved and a completed run must still satisfy every
certification the paper claims under arbitrary schedules. A run that
strands held events (the node never rejoins, the link never releases)
goes quiescent with non-terminated processes and surfaces as a loud
:class:`~repro.errors.StallError` — the same certify-or-stall dichotomy
the fault axis exposes, never a silently wrong tree.

Wrappers are applied at the process layer exactly like faults (any
protocol, no modification), and the table :data:`CHURN_PLANS` works
like :data:`repro.sim.faults.FAULT_PLANS`: a plan name plus
``(n, seed)`` deterministically expands to per-node wrappers, so sweeps,
scenario files, fuzz cells and cache keys carry "which churn" as a plain
string axis (``RunSpec.churn``).

* :func:`crash_restart` — the node handles ``down_after`` events, goes
  down, holds arrivals, and restarts once ``hold`` events have queued,
  replaying them in arrival order;
* :func:`flap_link` — a directed link holds outgoing sends during an
  event-count window and releases them in order afterwards;
* :func:`merge_plans` — compose churn with a fault plan per node.

The ``drop_churn_rejoin`` known-bug switch (:mod:`repro._mutation`)
plants restart amnesia here: a rejoining node forgets its volatile
``children`` view, modelling recovery that skips stable storage. The
fuzz loop's self-test proves the bug is found and shrunk.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from .._mutation import mutation_active
from ..errors import lookup
from ..rng import substream
from .faults import Fault, FaultPlan
from .messages import Message
from .node import Process

__all__ = [
    "Churn",
    "ChurnPlan",
    "crash_restart",
    "flap_link",
    "merge_plans",
    "NO_CHURN",
    "CHURN_PLANS",
    "churn_plan_from_name",
]

#: A churn wrapper has the same shape as a fault: applied to a fresh
#: process, returns the (instrumented) process.
Churn = Fault
ChurnPlan = FaultPlan

#: Mutation switch name (see module docstring).
DROP_CHURN_REJOIN = "drop_churn_rejoin"


def crash_restart(down_after: int, hold: int) -> Churn:
    """Crash-restart: down after *down_after* handled events, back up
    once *hold* events have accumulated, replayed in arrival order.

    The link layer keeps delivering while the node is down; deliveries
    are buffered below the protocol handler and handed to it on rejoin
    in exactly the order they arrived, so the composite behaviour is an
    admissible asynchronous schedule (per-link FIFO intact). If fewer
    than *hold* events ever arrive the node stays down and the run
    stalls loudly.

    *hold* must be >= 1; ``down_after=0`` crashes the node before its
    wake-up fires.
    """
    if down_after < 0:
        raise ValueError("down_after must be >= 0")
    if hold < 1:
        raise ValueError("hold must be >= 1")

    def churn(proc: Process) -> Process:
        handled = 0
        phase = 0  # 0 = up (pre-crash), 1 = down, 2 = rejoined
        held: list[tuple[int, Message] | None] = []
        orig_start = proc.on_start
        orig_message = proc.on_message

        def fire(ev: tuple[int, Message] | None) -> None:
            if ev is None:
                orig_start()
            else:
                orig_message(ev[0], ev[1])

        def handle(ev: tuple[int, Message] | None) -> None:
            nonlocal handled, phase
            if phase == 1:
                held.append(ev)
                if len(held) >= hold:
                    phase = 2
                    if mutation_active(DROP_CHURN_REJOIN):
                        # restart amnesia: the volatile children view is
                        # lost on rejoin instead of recovered — the node
                        # comes back believing it is a leaf
                        proc.children.clear()
                    replay, held[:] = held[:], []
                    for queued in replay:
                        fire(queued)
                return
            fire(ev)
            handled += 1
            if phase == 0 and handled >= down_after:
                phase = 1

        proc.on_start = lambda: handle(None)  # type: ignore[method-assign]
        proc.on_message = (  # type: ignore[method-assign]
            lambda sender, msg: handle((sender, msg))
        )
        return proc

    return churn


def flap_link(peer: int, down_after: int, hold: int) -> Churn:
    """Flap the directed link *node → peer*: after the node has sent
    *down_after* messages to *peer*, the link goes down and holds sends;
    once *hold* messages have been held the link recovers and releases
    them in order (before any later send). Held messages that never
    reach the release threshold are stranded — the run stalls loudly.
    """
    if down_after < 0:
        raise ValueError("down_after must be >= 0")
    if hold < 1:
        raise ValueError("hold must be >= 1")

    def churn(proc: Process) -> Process:
        sent = 0
        phase = 0  # 0 = up (pre-flap), 1 = down, 2 = recovered
        held: list[Message] = []
        orig_send = proc.ctx.send

        def send(dst: int, msg: Message) -> None:
            nonlocal sent, phase
            if dst != peer:
                orig_send(dst, msg)
                return
            if phase == 1:
                held.append(msg)
                if len(held) >= hold:
                    phase = 2
                    release, held[:] = held[:], []
                    for queued in release:
                        orig_send(peer, queued)
                return
            orig_send(peer, msg)
            if phase == 0:
                sent += 1
                if sent >= down_after:
                    phase = 1

        proc.ctx.send = send  # type: ignore[method-assign]
        proc.send = send  # keep the process's prebound alias in sync
        return proc

    return churn


def merge_plans(*plans: Mapping[int, Churn]) -> ChurnPlan:
    """Compose several per-node wrapper plans into one.

    For a node named in more than one plan the wrappers compose
    left-to-right: the first plan's wrapper is applied first (innermost),
    so in ``merge_plans(churn, faults)`` the fault wrapper observes the
    churned process — matching how a crash-stop would hit a node that is
    also churning.
    """
    merged: dict[int, Churn] = {}
    for plan in plans:
        for node, wrapper in plan.items():
            prev = merged.get(node)
            if prev is None:
                merged[node] = wrapper
            else:
                def composed(
                    proc: Process,
                    _inner: Churn = prev,
                    _outer: Churn = wrapper,
                ) -> Process:
                    return _outer(_inner(proc))

                merged[node] = composed
    return merged


# -- named churn plans ---------------------------------------------------------

#: A named plan expands to a concrete ChurnPlan given the network size
#: and the run seed, mirroring :data:`repro.sim.faults.FaultPlanFactory`.
ChurnPlanFactory = Callable[[int, int], ChurnPlan]

#: The distinguished no-op plan name (the default everywhere).
NO_CHURN = "none"


def _plan_none(n: int, seed: int) -> ChurnPlan:
    return {}


def _plan_restart_one(n: int, seed: int) -> ChurnPlan:
    """One seed-chosen node crash-restarts early: down after a few
    handled events, back up after two held events."""
    if n < 3:
        return {}
    rng = substream(seed, f"churn:restart_one:{n}")
    victim = int(rng.integers(n))
    return {victim: crash_restart(2 + int(rng.integers(3)), 2)}


def _plan_restart_wave(n: int, seed: int) -> ChurnPlan:
    """A quarter of the nodes (at least two) crash-restart with
    staggered down points — rolling churn across the network."""
    if n < 4:
        return {}
    rng = substream(seed, f"churn:restart_wave:{n}")
    count = max(2, n // 4)
    victims = sorted(int(v) for v in rng.choice(n, size=count, replace=False))
    return {
        v: crash_restart(1 + int(rng.integers(6)), 1 + int(rng.integers(3)))
        for v in victims
    }


def _plan_flap_edge(n: int, seed: int) -> ChurnPlan:
    """One seed-chosen directed pair flaps in both directions: each
    endpoint's link to the other holds a short burst mid-run. Non-edges
    are harmless (no sends ever traverse them), so the plan stays
    topology-independent."""
    if n < 3:
        return {}
    rng = substream(seed, f"churn:flap_edge:{n}")
    u = int(rng.integers(n))
    v = int((u + 1 + rng.integers(n - 1)) % n)
    down = 1 + int(rng.integers(3))
    return {
        u: flap_link(v, down, 2),
        v: flap_link(u, down, 2),
    }


def _plan_churn_storm(n: int, seed: int) -> ChurnPlan:
    """Restarts plus link flaps at once — the adversary's kitchen sink
    (and the regime the ``churn_storm`` scenario sweeps)."""
    return merge_plans(
        _plan_restart_wave(n, seed),
        _plan_flap_edge(n, seed),
    )


#: Churn-plan name -> plan factory (``none`` included).
CHURN_PLANS: dict[str, ChurnPlanFactory] = {
    NO_CHURN: _plan_none,
    "restart_one": _plan_restart_one,
    "restart_wave": _plan_restart_wave,
    "flap_edge": _plan_flap_edge,
    "churn_storm": _plan_churn_storm,
}


def churn_plan_from_name(name: str, n: int, seed: int = 0) -> ChurnPlan:
    """Expand a named plan for an *n*-node network."""
    return lookup(CHURN_PLANS, name, "churn plan")(n, seed)
