"""Known-bug switches for harness self-tests (mutation testing).

A test harness that hunts protocol bugs must prove it can find one.
This module lets a protocol carry named, default-off "known bug"
switches — e.g. re-opening the PR 1 cutter cross-reply race by skipping
the ``_maybe_cutter_choose`` drain gate — which the exploration
self-test flips on to assert the oracle catches and the shrinker
minimizes the injected failure.

Switches activate two ways, so they work both in-process and across a
parallel executor's worker processes:

* the ``REPRO_MUTATIONS`` environment variable (comma-separated names),
  read once at import — worker processes inherit it;
* :func:`activate` / :func:`deactivate` / the :func:`mutated` context
  manager, for tests running in one process.

Production code paths pay one set-membership test per guarded branch and
behave identically while no mutation is active (pinned by the
golden-trace regression suite).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = [
    "MUTATION_ENV",
    "KNOWN_MUTATIONS",
    "mutation_active",
    "activate",
    "deactivate",
    "mutated",
]

MUTATION_ENV = "REPRO_MUTATIONS"

#: Every switch wired into a protocol, with the bug it re-opens.
KNOWN_MUTATIONS: dict[str, str] = {
    "skip_cutter_gate": (
        "the cutter of either registered algorithm chooses while its "
        "own CousinReply is still in flight (the cross-reply race, "
        "gated once in the shared improvement round)"
    ),
    "slow_event_loop": (
        "every delivered message's bit size is recomputed from scratch "
        "before its handler runs, as the seed-era simulator loop did "
        "(metrics stay byte-identical; only wall-clock regresses — the "
        "perf gate's regression-sensitivity self-test)"
    ),
    "drop_churn_rejoin": (
        "a node restarting after a churn crash loses its volatile "
        "children view on rejoin (comes back believing it is a leaf) "
        "instead of recovering it from stable storage — reachable only "
        "when a churn plan actually takes the node down and the "
        "schedule rejoins it while it still has children (the fuzz "
        "loop's regression-sensitivity self-test)"
    ),
}

def _parse_env(value: str) -> set[str]:
    """Parse a ``REPRO_MUTATIONS`` value; unknown names fail loudly — a
    typo that silently activates nothing would make a buggy protocol
    look healthy."""
    names = {name.strip() for name in value.split(",")}
    names.discard("")
    unknown = names - set(KNOWN_MUTATIONS)
    if unknown:
        raise ValueError(
            f"unknown mutation(s) {sorted(unknown)} in ${MUTATION_ENV}; "
            f"known: {sorted(KNOWN_MUTATIONS)}"
        )
    return names


_active: set[str] = _parse_env(os.environ.get(MUTATION_ENV, ""))


def mutation_active(name: str) -> bool:
    """Is the named known-bug switch currently on?"""
    return name in _active


def activate(name: str) -> None:
    if name not in KNOWN_MUTATIONS:
        raise ValueError(
            f"unknown mutation {name!r}; known: {sorted(KNOWN_MUTATIONS)}"
        )
    _active.add(name)


def deactivate(name: str) -> None:
    _active.discard(name)


@contextmanager
def mutated(name: str):
    """Scoped activation for in-process self-tests."""
    activate(name)
    try:
        yield
    finally:
        deactivate(name)
