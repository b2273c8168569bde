"""Process-local telemetry registry: counters, events, and spans.

One :class:`Telemetry` instance collects everything a single command
execution observes about itself:

* **counters** — monotonically increasing named integers
  (``exec.groups``, ``cache.hits.disk``, …);
* **events** — structured one-off occurrences with a field payload
  (a cache-corruption event carries its key context);
* **spans** — a tree of named phases. A span's *attrs* are work-like
  fields only (ints / strings / bools describing what was done); its
  wall-clock timing is captured separately (``start_ns`` / ``dur_ns``)
  so the trace writer can segregate — and by default strip — it.

The two-metric discipline (the repo-wide rule the perf subsystem
established) applies: everything in ``counters`` / ``events`` / span
``attrs`` must be a pure function of the work performed — byte-identical
across serial / ``--jobs N`` / warm-cache execution for its section (see
:mod:`repro.obs.trace` for the section contract) — while wall-clock
lives only in the segregated timing fields.

Instrumented library code never takes a telemetry parameter; it calls
:func:`current`, which returns the innermost active instance or the
shared no-op :data:`NULL` sink (so un-traced runs pay one attribute
call per instrumentation point, and nothing allocates).
:func:`capture` activates an instance for a ``with`` block;
:func:`suspended` masks it (the bench timing pass uses this so repeated
timing iterations never leak into the work sections).

Subscribers (the ``on_event`` hook) receive every observation live as
``(kind, payload)`` pairs — ``span_start`` / ``span_end`` / ``count`` /
``event`` — which is the progress-streaming substrate a long-running
service layer can attach to without touching the trace files. A
subscriber that raises is warned about (once) and dropped: observation
never corrupts span state or kills the observed run.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "Telemetry",
    "NULL",
    "current",
    "capture",
    "suspended",
]

#: A live-progress subscriber: ``fn(kind, payload)`` with *kind* one of
#: ``span_start`` / ``span_end`` / ``count`` / ``event``.
Subscriber = Callable[[str, dict[str, Any]], None]


class Span:
    """One node of the span tree.

    ``attrs`` holds work-like fields only; mutate it freely while the
    span is open (``with t.span(...) as sp: sp.attrs["failures"] = n``)
    — the trace writer reads the final state. ``start_ns`` / ``dur_ns``
    are wall-clock (relative to the owning telemetry's epoch) and never
    mix into the deterministic sections.
    """

    __slots__ = ("name", "attrs", "children", "start_ns", "dur_ns")

    def __init__(self, name: str, attrs: dict[str, Any], start_ns: int) -> None:
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.start_ns = start_ns
        self.dur_ns = 0


class Telemetry:
    """A process-local registry of counters, events, and a span tree."""

    def __init__(self, command: str = "") -> None:
        self.command = command
        self.counters: dict[str, int] = {}
        self.events: list[tuple[str, dict[str, Any]]] = []
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._subscribers: list[Subscriber] = []
        self._epoch_ns = time.perf_counter_ns()

    # -- observation API ----------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter *name* by *n*."""
        self.counters[name] = self.counters.get(name, 0) + n
        if self._subscribers:
            self._notify("count", {"name": name, "n": n})

    def event(self, name: str, **fields: Any) -> None:
        """Record one structured event (emission order is preserved)."""
        self.events.append((name, fields))
        if self._subscribers:
            self._notify("event", {"name": name, **fields})

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child span of the innermost open span (or a root)."""
        sp = self._open(name, attrs)
        try:
            yield sp
        finally:
            self._close(sp)

    def leaf(self, name: str, **attrs: Any) -> Span:
        """Record an instant (zero-duration) child span.

        Drivers use this for *logical* spans derived after the fact from
        specs and records — e.g. one span per seed-varying cell group —
        whose shape must be identical whether the work ran serially, in
        a worker pool, or came out of a cache.
        """
        sp = self._open(name, attrs)
        self._close(sp)
        return sp

    def _open(self, name: str, attrs: dict[str, Any]) -> Span:
        sp = Span(name, attrs, time.perf_counter_ns() - self._epoch_ns)
        (self._stack[-1].children if self._stack else self.roots).append(sp)
        self._stack.append(sp)
        if self._subscribers:
            self._notify("span_start", {"name": name, **attrs})
        return sp

    def _close(self, sp: Span) -> None:
        sp.dur_ns = time.perf_counter_ns() - self._epoch_ns - sp.start_ns
        popped = self._stack.pop()
        assert popped is sp, f"span nesting violated: {popped.name} != {sp.name}"
        if self._subscribers:
            self._notify("span_end", {"name": sp.name, **sp.attrs})

    # -- merge (parallel workers ship their observations back) ---------

    def merge(self, dump: dict[str, Any]) -> None:
        """Fold a worker-side dump (see :meth:`dump`) into this registry.

        Counters add, events append in the order given. Merging is how a
        :class:`~repro.analysis.executor.ParallelExecutor` makes the
        exec-section observations of a ``--jobs N`` run byte-identical
        to a serial one: workers observe locally, the parent merges the
        dumps in group submission order.
        """
        for name, value in dump.get("counters", {}).items():
            self.count(name, value)
        for name, fields in dump.get("events", ()):
            self.event(name, **fields)

    def dump(self) -> dict[str, Any]:
        """Counters + events as plain built-ins (the worker wire form)."""
        return {
            "counters": dict(self.counters),
            "events": [[name, fields] for name, fields in self.events],
        }

    # -- live progress hook -------------------------------------------

    def subscribe(self, fn: Subscriber) -> None:
        """Attach a live observer (the service-layer progress hook).

        Subscribers are *isolated*: one that raises is warned about once
        and dropped, and can never corrupt span-stack state or kill the
        observed run — observation must stay side-effect-free for the
        computation being observed.
        """
        self._subscribers.append(fn)

    def _notify(self, kind: str, payload: dict[str, Any]) -> None:
        # iterate a copy: a failing subscriber is removed mid-loop
        for fn in tuple(self._subscribers):
            try:
                fn(kind, payload)
            except Exception as exc:
                try:
                    self._subscribers.remove(fn)
                except ValueError:
                    pass
                warnings.warn(
                    f"telemetry subscriber {fn!r} raised "
                    f"{type(exc).__name__}: {exc}; subscriber dropped",
                    RuntimeWarning,
                    stacklevel=2,
                )


class _NullTelemetry(Telemetry):
    """The inactive sink: every operation is a no-op.

    ``current()`` returns this when no capture is active, so
    instrumentation points cost one method call and allocate nothing —
    and all pre-existing artifacts are byte-identical with telemetry
    wired in but not captured.
    """

    def count(self, name: str, n: int = 1) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        yield _NULL_SPAN

    def leaf(self, name: str, **attrs: Any) -> Span:
        return _NULL_SPAN

    def merge(self, dump: dict[str, Any]) -> None:
        pass

    def subscribe(self, fn: Subscriber) -> None:
        raise RuntimeError("cannot subscribe to the null telemetry sink")


#: Shared throwaway span yielded by the null sink (attrs writes vanish
#: with it; a fresh dict per call would be avoidable garbage).
_NULL_SPAN = Span("null", {}, 0)

#: The shared no-op sink (also usable explicitly to mask a capture).
NULL = _NullTelemetry()

_ACTIVE: list[Telemetry] = []


def current() -> Telemetry:
    """The innermost active telemetry, or the no-op :data:`NULL` sink."""
    return _ACTIVE[-1] if _ACTIVE else NULL


@contextmanager
def capture(command: str = "") -> Iterator[Telemetry]:
    """Activate a fresh :class:`Telemetry` for the ``with`` block."""
    t = Telemetry(command)
    _ACTIVE.append(t)
    try:
        yield t
    finally:
        _ACTIVE.pop()


@contextmanager
def suspended() -> Iterator[None]:
    """Mask any active capture for the ``with`` block.

    The bench runner wraps its timing pass in this: min-of-k repetition
    would otherwise multiply every exec counter by the repeat count and
    make traces depend on ``--repeats``.
    """
    _ACTIVE.append(NULL)
    try:
        yield
    finally:
        _ACTIVE.pop()
