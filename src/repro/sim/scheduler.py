"""Adversarial scheduler policies: who delivers next is the adversary's call.

The paper's correctness claims are schedule-free — the protocol must
produce a certified tree under *any* asynchronous message ordering, not
just the orderings that time-based delay models happen to produce. Delay
models (:mod:`repro.sim.delays`) randomize *latencies*; a scheduler
policy goes further and takes over the *delivery order* itself: at every
step the policy inspects the set of currently deliverable events (one
head per FIFO link, plus undelivered node wake-ups) and picks which one
fires. This is the classic schedule-exploration model (PCT / random-walk
schedulers in model checkers), and it is what the
:mod:`repro.exploration` harness fans out over.

Admissibility: any order is legal as long as per-link FIFO is preserved
(the one ordering guarantee the engine documents) and only sent messages
are delivered. :class:`PolicyQueue` enforces both structurally — a policy
can *only* choose among admissible heads, so even a hostile policy cannot
express an illegal schedule.

Under a policy, simulated "time" is the virtual step index (delays are
never sampled; the ``delay`` axis is inert). Causal depth, message and
round counts — everything the paper's claims quantify — are unaffected.

Every policy is deterministic in ``(name, n, seed)``: the explorer's
shrinker and the regression corpus rely on a named policy replaying the
exact same schedule.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from collections.abc import Callable, Sequence
from functools import lru_cache
from typing import Any

from ..errors import SchedulingError, lookup
from ..rng import derive_seed, substream
from .events import EventKind, EventQueue

__all__ = [
    "SchedulerPolicy",
    "FifoScheduler",
    "LifoScheduler",
    "RandomScheduler",
    "StarveNodeScheduler",
    "ReplayScheduler",
    "PolicyQueue",
    "NO_SCHEDULER",
    "SCHEDULERS",
    "FALLBACKS",
    "REPLAY_PREFIX_MAX",
    "scheduler_from_name",
    "replay_spec",
    "parse_replay_spec",
    "is_replay_spec",
]

#: A deliverable head as shown to a policy: ``(seq, target, sender)``.
#: ``sender == -1`` marks a node wake-up (START) event. Heads are always
#: presented in ascending ``seq`` (send order), so index 0 is the oldest.
Head = tuple[int, int, int]


class SchedulerPolicy(ABC):
    """Strategy that picks the next deliverable event.

    ``bind(seed, n)`` is called once by the network at build time (so
    one instance is reusable across runs); ``choose`` is called once per
    simulator step with the admissible heads in ascending send order and
    returns the index (exactly an ``int``) of the event to fire. The
    heads are the queue's live list: read them, never mutate or keep
    them.
    """

    @abstractmethod
    def bind(self, seed: int, n: int) -> None:
        """Re-seed internal streams for an *n*-node network."""

    @abstractmethod
    def choose(self, heads: Sequence[Head]) -> int:
        """Index (into *heads*) of the event to deliver next."""

    @property
    def name(self) -> str:
        return type(self).__name__


class FifoScheduler(SchedulerPolicy):
    """Globally FIFO: always the oldest deliverable event. A *sequential*
    baseline adversary — useful because it collapses all concurrency into
    one canonical order."""

    def bind(self, seed: int, n: int) -> None:  # stateless
        return None

    def choose(self, heads: Sequence[Head]) -> int:
        return 0


class LifoScheduler(SchedulerPolicy):
    """Newest-first (age-biased): always the most recently sent
    deliverable event. Maximally starves old messages — the mirror image
    of FIFO and a classic trigger for "stale message meets fresh round
    state" races."""

    def bind(self, seed: int, n: int) -> None:  # stateless
        return None

    def choose(self, heads: Sequence[Head]) -> int:
        return len(heads) - 1


class RandomScheduler(SchedulerPolicy):
    """Seeded uniform choice among deliverable events — the random-walk
    schedule explorer. Different seeds are independent schedules."""

    def __init__(self) -> None:
        self._rng = None  # created by bind (or lazily, unbound)

    def bind(self, seed: int, n: int) -> None:
        self._rng = substream(seed, f"scheduler:random:{n}")

    def choose(self, heads: Sequence[Head]) -> int:
        rng = self._rng
        if rng is None:  # unbound: the seed-0 stream
            rng = self._rng = substream(0, "scheduler:random")
        return int(rng.integers(len(heads)))


class StarveNodeScheduler(SchedulerPolicy):
    """Targeted adversary: one seed-chosen victim node receives nothing
    (messages *and* its wake-up) while any event for another node is
    deliverable. The victim's inbound traffic arrives as late as the
    admissible-order semantics allow — the "delay-one-node" adversary."""

    def __init__(self) -> None:
        self.victim = 0

    def bind(self, seed: int, n: int) -> None:
        self.victim = derive_seed(seed, "scheduler:starve") % max(n, 1)

    def choose(self, heads: Sequence[Head]) -> int:
        for i, (_seq, target, _sender) in enumerate(heads):
            if target != self.victim:
                return i
        return 0  # only the victim's events remain: oldest first


class ReplayScheduler(SchedulerPolicy):
    """Replay a recorded choice-prefix, then fall back to a seeded policy.

    The fuzzer's workhorse: a schedule is represented as a finite prefix
    of raw choices (one int per simulator step) plus a named fallback
    policy for the suffix. ``choose`` maps the raw choice into range
    with a modulo, so *every* int prefix denotes an admissible schedule
    — mutation engines can truncate / splice / perturb freely without a
    validity check, and :class:`PolicyQueue` still structurally enforces
    per-link FIFO.

    Deterministic in ``(prefix, fallback, n, seed)``: ``bind`` resets
    the step cursor and re-binds the fallback, so one instance replays
    identically across runs.
    """

    def __init__(
        self, prefix: Sequence[int] = (), fallback: str = "random"
    ) -> None:
        tail = lookup(FALLBACKS, fallback, "replay fallback")
        self.prefix = tuple(map(int, prefix))
        if self.prefix and min(self.prefix) < 0:
            raise ValueError("replay prefix choices must be non-negative")
        if len(self.prefix) > REPLAY_PREFIX_MAX:
            raise ValueError(
                f"replay prefix longer than {REPLAY_PREFIX_MAX} choices"
            )
        self.fallback = fallback
        self._tail: SchedulerPolicy = tail()
        self._step = 0

    def bind(self, seed: int, n: int) -> None:
        self._step = 0
        self._tail.bind(seed, n)

    def choose(self, heads: Sequence[Head]) -> int:
        step = self._step
        self._step = step + 1
        prefix = self.prefix
        if step < len(prefix):
            return prefix[step] % len(heads)
        return self._tail.choose(heads)

    @property
    def name(self) -> str:
        return replay_spec(self.prefix, self.fallback)


#: Flat-indexed link storage is bounded: n*n slots must stay small enough
#: that a mostly-empty list is cheaper than a dict (8 MB of pointers at
#: the cap). Larger/sparse id spaces fall back to dict keying.
_MAX_DENSE_SLOTS = 1 << 20


class PolicyQueue(EventQueue):
    """Event queue whose delivery order is a policy's, not the clock's.

    Structure enforces admissibility: DELIVER events live in one FIFO
    ring buffer per directed link (only the head of each buffer is
    eligible), START events are individually eligible. The policy sees
    the eligible heads in ascending send order and picks one; virtual
    time advances by one step per pop, so ``now`` stays monotone and the
    metrics layer needs no special cases.

    Scheduled times passed to :meth:`push_raw` are ignored for ordering
    (and the in-the-past check is waived — times are labels here, not
    priorities).

    Per-link storage (engine v2): with *n* given (node ids dense in
    ``0..n-1``), a link's FIFO lives in a flat list indexed by the dense
    link id ``sender * n + target`` — each slot a ``[events, head]``
    ring (append at the tail, advance ``head`` on delivery, slot freed
    when drained). Without *n* (or for huge/sparse id spaces) the same
    rings are dict-keyed by ``(sender, target)``.

    The eligible heads are maintained *incrementally* (the perf suite's
    ``policy_queue_ops`` micro-kernel guards this), together with the
    ``(seq, target, sender)`` views the policy sees, in a second list at
    the same indices: the global ``seq`` counter only grows, so a
    newly-eligible head (a START push or the first message on an idle
    link) always appends at the tail of both seq-sorted lists, and only
    a link's *successor* head — exposed when its predecessor is
    delivered — needs a ``bisect`` insert. The policy gets the view list
    itself (it must not mutate it); nothing is rebuilt per pop.
    """

    __slots__ = ("policy", "_n", "_rings", "_links", "_heads", "_views", "_size")

    def __init__(self, policy: SchedulerPolicy, n: int | None = None) -> None:
        super().__init__()
        self.policy = policy
        if n is not None and 0 < n * n <= _MAX_DENSE_SLOTS:
            self._n = n
            #: dense-link-id -> [events, head] ring; None = idle link
            self._rings: list[list | None] | None = [None] * (n * n)
        else:
            self._n = 0
            self._rings = None
        #: fallback ring storage keyed by directed link (sparse ids)
        self._links: dict[tuple[int, int], list] = {}
        #: eligible heads (one per link + pending STARTs), ascending seq
        self._heads: list[tuple] = []
        #: the policy's view of ``_heads``, index for index
        self._views: list[Head] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def push_raw(
        self,
        time: float,
        kind: EventKind,
        target: int,
        sender: int = -1,
        payload: Any = None,
        depth: int = 0,
    ) -> int:
        seq = self._seq
        self._seq = seq + 1
        self._size += 1
        entry = (time, seq, kind, target, sender, payload, depth)
        if kind:  # DELIVER: the tail of its link's ring
            rings = self._rings
            if rings is not None:
                link = sender * self._n + target
                ring = rings[link]
            else:
                link = (sender, target)
                ring = self._links.get(link)
            if ring is not None:
                ring[0].append(entry)
                return seq
            (rings if rings is not None else self._links)[link] = [[entry], 0]
        # a START, or the first message on an idle link: a new head
        self._heads.append(entry)
        self._views.append((seq, target, sender))
        return seq

    def pop_raw(self) -> tuple[float, int, EventKind, int, int, Any, int]:
        if not self._size:
            raise SchedulingError("pop from empty event queue")
        heads = self._heads
        views = self._views
        index = self.policy.choose(views)
        # exactly int: a bool (or a numpy int) is not a head index
        if type(index) is not int or not 0 <= index < len(heads):
            raise SchedulingError(
                f"scheduler {self.policy.name} chose {index!r} "
                f"out of {len(heads)} deliverable events"
            )
        entry = heads.pop(index)
        del views[index]
        if entry[2]:  # DELIVER: expose the link's successor, if any
            rings = self._rings
            if rings is not None:
                link = entry[4] * self._n + entry[3]
                ring = rings[link]
            else:
                link = (entry[4], entry[3])
                ring = self._links[link]
            events, head = ring
            head += 1
            if head < len(events):
                if head >= 512:
                    # compact the delivered prefix of a long-busy link
                    del events[:head]
                    head = 0
                ring[1] = head
                # the successor's seq is larger than the popped entry's
                # but otherwise arbitrary among the remaining heads: the
                # one place an ordered insert is needed (seqs are unique,
                # so the views compare on seq alone)
                succ = events[head]
                view = (succ[1], succ[3], succ[4])
                at = bisect_left(views, view)
                views.insert(at, view)
                heads.insert(at, succ)
            elif rings is not None:
                rings[link] = None
            else:
                del self._links[link]
        self._size -= 1
        self._now += 1.0
        # virtual step time replaces the scheduled label time
        return (self._now, entry[1], entry[2], entry[3], entry[4], entry[5], entry[6])


#: The distinguished "no policy" name: normal time-based scheduling.
NO_SCHEDULER = "none"

#: Scheduler-policy name -> zero-argument factory. Policies must be
#: deterministic in ``(n, seed)``; the exploration property suite checks
#: every entry.
SCHEDULERS: dict[str, Callable[[], SchedulerPolicy | None]] = {
    NO_SCHEDULER: lambda: None,
    "fifo": FifoScheduler,
    "lifo": LifoScheduler,
    "random": RandomScheduler,
    "starve": StarveNodeScheduler,
    "replay": ReplayScheduler,  # zero-arg: empty prefix, random fallback
}

#: The policies a replay schedule can hand over to past its prefix.
FALLBACKS: dict[str, Callable[[], SchedulerPolicy]] = {
    name: factory
    for name, factory in SCHEDULERS.items()
    if name not in (NO_SCHEDULER, "replay")
}

#: Upper bound on a replay prefix: keeps spec strings (which travel
#: through RunSpec fields, cache keys and corpus artifacts) bounded.
REPLAY_PREFIX_MAX = 4096

#: Parsed replay specs the per-process memo keeps (least recently used
#: evicted first).
REPLAY_PARSE_MEMO = 1 << 12

#: A raw replay choice lives in [0, REPLAY_CHOICE_SPACE); ``choose``
#: reduces it modulo the head count, so the bound only shapes mutation
#: entropy, never admissibility.
REPLAY_CHOICE_SPACE = 64


def is_replay_spec(name: str) -> bool:
    """True for the bare ``replay`` policy name or a ``replay:...`` spec."""
    return name == "replay" or name.startswith("replay:")


def replay_spec(prefix: Sequence[int], fallback: str = "random") -> str:
    """Canonical spec string for a replay schedule.

    ``replay`` (empty prefix, random fallback), ``replay:<fallback>``
    (empty prefix) or ``replay:<fallback>:<c1.c2...>``. The encoding is
    bijective with ``(prefix, fallback)`` — :func:`parse_replay_spec`
    rejects every non-canonical spelling — so the spec string can serve
    as the schedule's identity in cache keys and corpus artifacts.
    """
    prefix = tuple(map(int, prefix))
    if not prefix and fallback == "random":
        return "replay"
    if not prefix:
        return f"replay:{fallback}"
    return f"replay:{fallback}:" + ".".join(map(str, prefix))


@lru_cache(maxsize=REPLAY_PARSE_MEMO)
def parse_replay_spec(name: str) -> tuple[tuple[int, ...], str]:
    """Inverse of :func:`replay_spec`; raises ValueError on any
    non-canonical spelling (leading zeros, signs, spaces, empty chunks),
    so distinct spec strings always denote distinct schedules. Memoized
    per process: a fuzz campaign parses each schedule several times
    (axis check, template, mutation, coverage signature)."""
    if name == "replay":
        return (), "random"
    parts = name.split(":")
    if not 2 <= len(parts) <= 3 or parts[0] != "replay":
        raise ValueError(f"not a replay scheduler spec: {name!r}")
    fallback = parts[1]
    if fallback == NO_SCHEDULER or is_replay_spec(fallback):
        raise ValueError(f"bad replay fallback {fallback!r} in {name!r}")
    if len(parts) == 2:
        if fallback == "random":
            raise ValueError(
                f"non-canonical replay spec {name!r}; use 'replay'"
            )
        return (), fallback
    chunk = parts[2]
    if not chunk:
        raise ValueError(
            f"non-canonical replay spec {name!r}; empty prefix omits the tail"
        )
    choices = []
    for tok in chunk.split("."):
        if not tok.isdigit() or (tok != "0" and tok[0] == "0"):
            raise ValueError(f"bad replay choice {tok!r} in {name!r}")
        choices.append(int(tok))
    if replay_spec(choices, fallback) != name:  # e.g. non-ASCII digits
        raise ValueError(f"non-canonical replay spec {name!r}")
    return tuple(choices), fallback


def scheduler_from_name(name: str) -> SchedulerPolicy | None:
    """Factory used by the CLI / sweep specs (``"none"`` → ``None``).

    Accepts every name in :data:`SCHEDULERS` plus canonical
    ``replay:<fallback>[:<prefix>]`` spec strings (see
    :func:`replay_spec`); non-canonical replay spellings are rejected so
    two distinct spec strings can never alias one schedule (the result
    cache hashes the spec string verbatim).
    """
    if name.startswith("replay:"):
        return ReplayScheduler(*parse_replay_spec(name))
    return lookup(SCHEDULERS, name, "scheduler policy")()
