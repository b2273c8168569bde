"""The asynchronous network engine.

Builds one :class:`~repro.sim.node.Process` per graph node, connects them
with FIFO bidirectional links, and runs the event loop to quiescence.

Model guarantees (matching §2 of the paper plus the documented FIFO
repair):

* point-to-point messages on graph edges only, reliable, no duplication;
* **per-link FIFO**: messages on the same directed link are delivered in
  send order even under random delay models (delivery times are clamped
  to be non-decreasing per link);
* asynchronous: arbitrary positive finite delays, arbitrary node start
  times;
* event-driven: nodes act only on start/deliver events.

The engine enforces a hard *event budget* so a livelocked protocol fails
fast with :class:`~repro.errors.TerminationError` instead of spinning.

Engine v2 — flat data on the hot path. The structures are chosen once at
construction from the run configuration:

* **queue** — unit delays without a scheduler policy (the dominant
  configuration) get a :class:`~repro.sim.events.BucketQueue` (flat
  per-time buckets, O(1) push/pop); random delay models keep the binary
  heap; a scheduler policy keeps :class:`~repro.sim.scheduler.PolicyQueue`
  (flat per-link rings). All three pop the identical ``(time, seq)``
  raw-tuple order, so every metric is byte-for-byte the same.
* **send** — every node gets its own send closure as ``ctx.send``, with
  its id and neighbour set prebound (O(1) adjacency check, the same
  :class:`~repro.errors.ChannelError` text everywhere). In the unit-delay
  configuration that closure is the whole send, one frame: adjacency
  check, one :class:`~repro.sim.metrics.ClassTally` update (sends, summed
  fields, widest message), ``seq`` and a direct append to the ``now + 1``
  bucket. Elsewhere it checks adjacency and calls :meth:`Network._send`,
  which charges the same tally through ``MessageStats.charge`` and adds
  delay sampling, FIFO clamping, tracing and causal capture.
  ``ctx._send`` is always that validated 3-argument method.
* **loops** — :meth:`Network.run` picks one of two. The fast loop
  (unit delays; no trace, capture, scheduler or monitors) walks bucket
  lists with prebound handler tables (one index per event, no ``Event``
  materialization); the general loop pops raw tuples from any queue and
  adds the thin trace/capture/monitor adapter. The handler tables are
  bound at run time, after fault plans have wrapped the processes.
* **counters** — message totals (``total_messages``, ``total_bits``,
  ``by_type``, ``max_id_fields``) are derived from the per-class tallies
  on read. Per delivery the fast loop only keeps the delivery time in a
  local, raises the target's clock and calls the handler; at loop exit
  (also when a handler raises) it derives ``deliveries`` (events −
  starts), the causal time (the deepest node clock) and the sim time (the
  last delivery's). The general loop keeps them per delivery, since its
  monitors may read them mid-run.
  :attr:`Network.in_flight` is always sent − delivered.

The ``slow_event_loop`` mutation wraps every ``on_message`` handler with
a from-scratch ``message_bits`` recomputation — metrics stay
byte-identical, only wall-clock regresses (the perf gate's sensitivity
self-test).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from heapq import heappop, heappush

from .._mutation import mutation_active
from ..errors import ChannelError, SimulationError, TerminationError
from ..graphs.graph import Graph
from .delays import DelayModel, UnitDelay
from .events import BucketQueue, EventKind, EventQueue
from .messages import Message, message_bits
from .metrics import MessageStats, SimulationReport
from .node import NodeContext, Process
from .provenance import CausalTally, swap_active
from .scheduler import PolicyQueue, SchedulerPolicy
from .trace import TraceRecord, TraceRecorder

__all__ = ["Network", "ProcessFactory"]

#: A process factory: called as ``factory(ctx)`` for every node.
ProcessFactory = type[Process] | object

_START = EventKind.START
_DELIVER = EventKind.DELIVER

#: Flat FIFO-floor storage bound (n*n floats); larger graphs use a dict.
_MAX_DENSE_FLOORS = 1 << 18


def _no_link(src: int, dst: int, neighbors: tuple) -> ChannelError:
    return ChannelError(f"node {src} has no link to {dst} (neighbors: {neighbors})")


def _checked_sender(net_send):
    """Per-node send factory for the general configuration: each node's
    closure does the O(1) adjacency check with its id prebound, then the
    network's validated 3-argument send.

    The closure is installed as the instance's ``ctx.send``. Fault
    wrappers keep composing: they rebind ``ctx.send`` (and the process's
    ``send`` alias) around whatever is installed here.
    """

    def make(src: int, neighbors: tuple):
        nbset = frozenset(neighbors)

        def send(dst: int, msg: Message) -> None:
            if dst not in nbset:
                raise _no_link(src, dst, neighbors)
            net_send(src, dst, msg)

        return send

    return make


def _slow_handler(handler, n: int):
    """``slow_event_loop`` mutation: recompute every delivered message's
    bit size from scratch (the accounting :mod:`repro.sim.codec` compiles
    away) and discard it, so only wall-clock time regresses."""

    def on_message(sender: int, msg: Message) -> None:
        message_bits(msg, n)
        handler(sender, msg)

    return on_message


class Network:
    """Simulated asynchronous message-passing network over a graph.

    Parameters
    ----------
    graph:
        Static topology. Must be non-empty.
    factory:
        ``Process`` subclass (or any callable ``ctx -> Process``).
    delay:
        Link delay model (default: unit delays — the paper's analysis
        assumption).
    seed:
        Master seed binding the delay model's streams.
    start_times:
        Optional map ``node -> wake-up time``; nodes default to time 0.0
        (the paper lets nodes start "perhaps at different times").
    trace:
        Optional :class:`TraceRecorder`.
    monitors:
        Iterable of callables ``network -> None`` invoked every
        *monitor_interval* processed events and once at quiescence
        (invariant checking in tests; routes the run through the general
        drive loop).
    scheduler:
        Optional :class:`~repro.sim.scheduler.SchedulerPolicy`. When set,
        the policy picks every delivery (the *delay* model is bypassed;
        simulated time becomes the virtual step index).
    causal:
        Optional :class:`~repro.sim.provenance.CausalTally` (digest
        only) or :class:`~repro.sim.provenance.CausalCapture` (full
        rows). When set, every send/delivery is tallied with primitive
        attribution (a capture also records handler/clock parentage);
        like a trace, it routes the run through the general drive loop
        (the fast loop requires ``causal is None`` and stays
        byte-for-byte untouched).
    """

    def __init__(
        self,
        graph: Graph,
        factory: ProcessFactory,
        *,
        delay: DelayModel | None = None,
        seed: int = 0,
        start_times: Mapping[int, float] | None = None,
        trace: TraceRecorder | None = None,
        monitors: Iterable[object] = (),
        monitor_interval: int = 256,
        scheduler: SchedulerPolicy | None = None,
        causal: CausalTally | None = None,
    ) -> None:
        if graph.n == 0:
            raise SimulationError("cannot simulate an empty network")
        self.graph = graph
        self.scheduler = scheduler
        self.delay = delay if delay is not None else UnitDelay()
        self.delay.bind(seed)
        # Unit delays make per-link delivery times inherently non-decreasing
        # (global time is), so the FIFO clamp is skipped on that path.
        self._unit_delay = type(self.delay) is UnitDelay
        nodes = graph.nodes()
        dense = nodes == list(range(graph.n))
        self._dense = dense
        if scheduler is not None:
            scheduler.bind(seed, graph.n)
            self.queue: EventQueue = PolicyQueue(
                scheduler, n=graph.n if dense else None
            )
        elif self._unit_delay:
            self.queue = BucketQueue()
        else:
            self.queue = EventQueue()
        self.stats = MessageStats(n=graph.n)
        self.trace = trace
        self._causal = causal
        self.monitors = tuple(monitors)
        self.monitor_interval = int(monitor_interval)
        # per-node causal clocks: flat list under dense ids (every graph
        # generator produces 0..n-1), dict for arbitrary identities
        self._clocks: list[int] | dict[int, int] = (
            [0] * graph.n if dense else {u: 0 for u in nodes}
        )
        # FIFO floors (random-delay path only): flat n*n slab under dense
        # ids, keyed by the dense link id src*n+dst; dict fallback else.
        self._dense_floors = dense and graph.n * graph.n <= _MAX_DENSE_FLOORS
        if self._dense_floors:
            self._fifo_floor: list[float] | dict = [0.0] * (graph.n * graph.n)
        else:
            self._fifo_floor = {}
        self._processed = 0
        # the unit-delay/no-policy/no-trace configuration gets one
        # specialized send frame per node over the bucket queue's
        # internals; everything else goes through the general method
        if (
            trace is None
            and scheduler is None
            and causal is None
            and self._unit_delay
        ):
            node_send = self._unit_sender()
        else:
            node_send = _checked_sender(self._send)
        self.processes: dict[int, Process] = {}
        now_fn = self.queue.get_now
        marker = self._make_marker()
        for u in nodes:
            neighbors = tuple(sorted(graph.neighbors(u)))
            ctx = NodeContext(node_id=u, neighbors=neighbors)
            ctx._send = self._send
            ctx._now = now_fn
            ctx._mark = marker
            # instance attribute shadows the NodeContext.send method: the
            # prebound closure drops a frame and the O(degree) scan
            ctx.send = node_send(u, neighbors)  # type: ignore[method-assign]
            self.processes[u] = factory(ctx)  # type: ignore[operator]
        starts = dict(start_times or {})
        unknown = set(starts) - set(nodes)
        if unknown:
            raise SimulationError(f"start_times for unknown nodes {sorted(unknown)}")
        for u in nodes:
            self.queue.push_raw(starts.get(u, 0.0), _START, target=u)

    # -- wiring ------------------------------------------------------------

    def _make_marker(self):
        def mark(label: str, value: object = None) -> None:
            self.stats.mark(self.queue.now, label, value)

        return mark

    def _unit_sender(self):
        """Per-node send factory for the fast configuration (unit delay, no
        scheduler, trace or capture): each node's closure is the whole send
        -- adjacency check, per-class tally, seq and bucket append."""
        queue: BucketQueue = self.queue  # type: ignore[assignment]
        buckets = queue._buckets
        times = queue._times
        clocks = self._clocks
        tallies = self.stats.tallies
        tally_of = self.stats.tally_of
        # outgoing-bucket cache, shared by every node: consecutive sends
        # overwhelmingly target the same delivery time (now + 1), so
        # remember that bucket and skip the dict probe. Sound because a
        # bucket is only drained at its own time, after which now+1 has
        # moved past it.
        last = [-1.0, None]

        def make(src: int, neighbors: tuple):
            nbset = frozenset(neighbors)

            def send(dst: int, msg: Message) -> None:
                if dst not in nbset:
                    raise _no_link(src, dst, neighbors)
                tally = tallies.get(msg.__class__)
                if tally is None:
                    tally = tally_of(msg.__class__)  # validates Message-ness
                fields = tally.count(msg)
                tally.sends += 1
                tally.fields += fields
                if fields > tally.max_fields:
                    tally.max_fields = fields
                t = queue._now + 1.0
                seq = queue._seq
                queue._seq = seq + 1
                if last[0] == t:
                    last[1].append((t, seq, _DELIVER, dst, src, msg, clocks[src] + 1))
                else:
                    bucket = buckets.get(t)
                    if bucket is None:
                        bucket = [(t, seq, _DELIVER, dst, src, msg, clocks[src] + 1)]
                        buckets[t] = bucket
                        heappush(times, t)
                    else:
                        bucket.append((t, seq, _DELIVER, dst, src, msg, clocks[src] + 1))
                    last[0] = t
                    last[1] = bucket

            return send

        return make

    def _send(self, src: int, dst: int, msg: Message) -> None:
        """General send: any delay model, scheduler label times, tracing
        and causal capture."""
        bits = self.stats.charge(msg)  # raises for non-Message
        queue = self.queue
        now = queue._now
        if self.scheduler is not None:
            deliver_at = now  # a label only: the policy orders deliveries
        elif self._unit_delay:
            deliver_at = now + 1.0
        else:
            latency = self.delay.sample(src, dst)
            if latency <= 0:
                raise SimulationError(
                    f"delay model produced non-positive latency {latency}"
                )
            deliver_at = now + latency
            # FIFO repair: clamp to the last scheduled delivery on this link.
            floors = self._fifo_floor
            if self._dense_floors:
                key = src * self.graph.n + dst
                floor = floors[key]
            else:
                key = (src, dst)
                floor = floors.get(key, 0.0)  # type: ignore[union-attr]
            if deliver_at < floor:
                deliver_at = floor
            floors[key] = deliver_at  # type: ignore[index]
        depth = self._clocks[src] + 1
        seq = queue.push_raw(deliver_at, _DELIVER, dst, src, msg, depth)
        if self._causal is not None:
            self._causal.on_send(seq, src, msg.__class__.__name__, bits, depth)
        if self.trace is not None:
            self.trace.emit(TraceRecord(now, "send", src, dst, msg))

    # -- accessors -----------------------------------------------------------

    def node(self, node_id: int) -> Process:
        """The process instance running at *node_id*."""
        try:
            return self.processes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node {node_id}") from None

    @property
    def now(self) -> float:
        return self.queue.now

    @property
    def in_flight(self) -> int:
        """Messages sent but not yet delivered."""
        return self.stats.total_messages - self.stats.deliveries

    @property
    def processed(self) -> int:
        """Events handled so far."""
        return self._processed

    # -- engine ----------------------------------------------------------------

    def run(self, max_events: int = 5_000_000) -> SimulationReport:
        """Drive the event loop to quiescence.

        Raises :class:`TerminationError` if *max_events* is exceeded —
        protocols in this library terminate by process, so hitting the cap
        is always a bug.
        """
        if (
            type(self.queue) is BucketQueue
            and self.trace is None
            and self._causal is None
            and not self.monitors
        ):
            processed = self._drive_fast_bucket(max_events)
        else:
            processed = self._drive_general(max_events)
        if self.queue:
            raise TerminationError(
                f"event budget {max_events} exhausted; protocol livelock?"
            )
        for monitor in self.monitors:
            monitor(self)  # type: ignore[operator]
        return SimulationReport.from_stats(self.stats, processed, quiescent=True)

    def _handler_tables(self):
        """Prebound per-node ``on_message`` / ``on_start`` tables for the
        drive loops — flat lists under dense ids (indexing beats hashing),
        dicts otherwise. Built per run, after fault wrapping."""
        procs = self.processes
        on_message = [p.on_message for p in procs.values()]
        if mutation_active("slow_event_loop"):
            n = self.graph.n
            on_message = [_slow_handler(h, n) for h in on_message]
        on_start = [p.on_start for p in procs.values()]
        if self._dense:
            return on_message, on_start
        return dict(zip(procs, on_message)), dict(zip(procs, on_start))

    def _drive_fast_bucket(self, stop_at: int) -> int:
        """Fast loop over the bucket queue: no trace, capture or monitors.

        Per delivery it only keeps the delivery time in a local, raises
        the target's clock and calls the handler; the delivery counters
        are derived once on exit (also when a handler raises):
        deliveries = events - starts, causal time = the deepest node
        clock, and -- simulated time being non-decreasing here -- sim
        time = the last delivery's time.
        """
        queue: BucketQueue = self.queue  # type: ignore[assignment]
        buckets = queue._buckets
        times = queue._times
        clocks = self._clocks
        on_message, on_start = self._handler_tables()
        processed = first = self._processed
        starts = 0
        last_time = None
        cur = queue._cur
        idx = queue._cur_idx
        try:
            while processed < stop_at:
                if idx >= len(cur):
                    if not times:
                        break
                    t = heappop(times)
                    cur = buckets.pop(t)
                    idx = 0
                    queue._now = t
                time, _seq, kind, target, sender, payload, depth = cur[idx]
                idx += 1
                processed += 1
                if kind:  # DELIVER
                    last_time = time
                    if depth > clocks[target]:
                        clocks[target] = depth
                    on_message[target](sender, payload)
                else:
                    starts += 1
                    on_start[target]()
        finally:
            # keep the queue's cursor consistent for the budget check and
            # for error paths (handler exceptions)
            queue._cur = cur
            queue._cur_idx = idx
            self._processed = processed
            stats = self.stats
            stats.deliveries += processed - first - starts
            deepest = max(clocks.values() if isinstance(clocks, dict) else clocks)
            if deepest > stats.max_causal_depth:
                stats.max_causal_depth = deepest
            if last_time is not None and last_time > stats.max_sim_time:
                stats.max_sim_time = last_time
        return processed

    def _drive_general(self, stop_at: int) -> int:
        """Raw-tuple loop with the thin trace/capture/monitor adapter.

        Pops via the queue (so the binary heap of random delay models, a
        :class:`PolicyQueue`'s policy-ordered ``pop_raw`` and the bucket
        queue all slot in transparently); the only additions over the
        fast loop are the ``trace.emit`` / capture calls and the periodic
        monitor sweep.
        """
        queue = self.queue
        pop_raw = queue.pop_raw
        trace = self.trace
        causal = self._causal
        monitors = self.monitors
        monitor_interval = self.monitor_interval
        clocks = self._clocks
        stats = self.stats
        on_message, on_start = self._handler_tables()
        processed = self._processed
        # the capture becomes the primitives' stamp target for exactly
        # this run (restored on exit)
        prev_active = swap_active(causal) if causal is not None else None
        try:
            while queue and processed < stop_at:
                time, _seq, kind, target, sender, payload, depth = pop_raw()
                processed += 1
                if kind:  # DELIVER
                    if depth > clocks[target]:
                        clocks[target] = depth
                    stats.deliveries += 1
                    if depth > stats.max_causal_depth:
                        stats.max_causal_depth = depth
                    if time > stats.max_sim_time:
                        stats.max_sim_time = time
                    if trace is not None:
                        trace.emit(TraceRecord(time, "deliver", sender, target, payload))
                    if causal is not None:
                        causal.begin_deliver(_seq, target, sender, time, depth)
                    on_message[target](sender, payload)
                else:
                    if trace is not None:
                        trace.emit(TraceRecord(time, "start", -1, target, None))
                    if causal is not None:
                        causal.begin_start(target, time)
                    on_start[target]()
                if monitors and processed % monitor_interval == 0:
                    for monitor in monitors:
                        monitor(self)  # type: ignore[operator]
        finally:
            if causal is not None:
                swap_active(prev_active)
            self._processed = processed
        return processed
