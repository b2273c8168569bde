"""Coverage-guided schedule fuzzing: the explorer as a feedback loop.

The exploration grid replays a fixed (family × seed × policy) lattice —
it can never find a bug that needs a *specific* interleaving or mid-run
churn. This module turns the same machinery into a feedback-driven
adversary:

* a schedule is a **replay cell**: an :class:`ExplorationCell` whose
  scheduler is a canonical ``replay:<fallback>:<prefix>`` spec string
  (:func:`repro.sim.scheduler.replay_spec`), so schedule prefixes are
  ordinary cell fields — mutable, cacheable, shrinkable and
  content-addressable exactly like counterexample artifacts;
* a **coverage signal** (:func:`record_signature`) buckets each probe
  record by outcome, degree movement, work-metric magnitudes and the
  causal forensics probes capture (critical-path depth, per-primitive
  message-share shape, bound-touching finishes); the
  :class:`CoverageMap` admits a cell into the live corpus only when its
  probe reached a bucket no earlier input reached;
* a **mutation engine** (:data:`MUTATION_OPS`, :func:`mutate_cell`)
  perturbs corpus entries — extend / perturb / truncate / splice the
  prefix, hop the seed, the churn plan or the fallback policy — every
  product is admissible by construction (raw choices are reduced modulo
  the live head count);
* the **fuzz loop** (:func:`run_fuzz`) fans probe batches through the
  same Serial / Parallel / Caching executors as sweeps, judges them
  with the differential oracle, and routes every failure through the
  ddmin shrinker.

Determinism: probe records are pure functions of their specs, mutation
randomness comes from one :func:`~repro.rng.substream` keyed by the fuzz
seed, and corpus admission depends only on (records, arrival order) — so
the whole campaign is a pure function of ``(spec, seed corpus)``, and
serial vs ``--jobs N`` runs are byte-identical (pinned by
``tests/test_fuzz.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..analysis.axes import FALLBACK, check_spec
from ..analysis.cache import ResultCache
from ..analysis.executor import Executor, ParallelExecutor
from ..analysis.records import RunRecord
from ..errors import AnalysisError
from ..obs import current as obs
from ..rng import substream
from ..sim.scheduler import (
    NO_SCHEDULER,
    REPLAY_CHOICE_SPACE,
    REPLAY_PREFIX_MAX,
    is_replay_spec,
    parse_replay_spec,
    replay_spec,
)
from .cells import DEFAULT_ALGORITHMS, ExplorationCell
from .explorer import ExplorationResult, explore, probe_executor
from .oracle import EXACT_LIMIT
from .shrink import ShrinkOutcome, shrink

__all__ = [
    "record_signature",
    "result_signature",
    "CoverageMap",
    "MUTATION_OPS",
    "mutate_cell",
    "FuzzSpec",
    "FuzzReport",
    "run_fuzz",
    "load_corpus_cells",
    "corpus_digest",
]


# -- coverage -----------------------------------------------------------------


def _bucket(value: int) -> int:
    """Log-scale work-metric bucket (bit length: 0, 1, 2, 4, 8, ...)."""
    return int(value).bit_length()


def _section_shares(causal: dict) -> tuple:
    """Per-primitive message-share buckets from a causal digest.

    Each captured section's share of the run's messages is coarsened to
    a ninth (0–8, via integer floor so shares always sum consistently);
    the result is a sorted tuple of ``(section, ninths)`` pairs — a
    *shape* of where the protocol spent its messages, insensitive to
    absolute volume (which :func:`_bucket` components already cover).
    Empty digests (uncaptured or pre-capture records) yield ``()``.
    """
    sections = causal.get("sections") or {}
    total = sum(msgs for msgs, _bits in sections.values())
    if not total:
        return ()
    return tuple(
        sorted(
            (name, min(8, (9 * msgs) // total))
            for name, (msgs, _bits) in sections.items()
        )
    )


def record_signature(record: RunRecord, opt: int | None = None) -> tuple:
    """Coverage signature of one probe record.

    A **pure function of** ``(record, opt)`` (pinned by the property
    suite): no clocks, no counters, no state — so serial, parallel and
    cached probes of the same spec always land in the same bucket.
    Buckets deliberately coarsen the work metrics (bit-length scale) so
    "same behaviour, slightly different schedule" collapses while phase
    changes (outcome flips, degree movement, message blow-ups) separate.

    Three causal-forensics components ride at the end (appended, never
    inserted — downstream digests index into the tuple):

    * the bit-length bucket of the captured critical-path length
      (schedules that stretch or compress the dependency chain separate
      even at equal message counts);
    * the per-primitive message-share shape (:func:`_section_shares` —
      a schedule that starves the wave but floods token walks is new
      behaviour);
    * ``near_bound`` — True when the oracle solved the instance exactly
      (*opt* is Δ*) and the run finished **at** its algorithm's claimed
      degree bound: the worst certified tree the claim allows, exactly
      the region counterexamples border.
    """
    causal = record.causal or {}
    near_bound = False
    if opt is not None and record.ok:
        from ..algorithms import get_algorithm

        bound = get_algorithm(record.algorithm).degree_bound(opt, record.n)
        near_bound = record.k_final == bound
    return (
        record.algorithm,
        record.outcome,
        record.churn,
        int(record.k_initial),
        int(record.k_final),
        _bucket(record.rounds),
        _bucket(record.messages),
        _bucket(record.events),
        _bucket(record.causal_time),
        _bucket(int(causal.get("crit_len", 0))),
        _section_shares(causal),
        near_bound,
    )


def result_signature(result: ExplorationResult) -> tuple:
    """Coverage signature of one judged cell: the instance shape, the
    per-record signatures (fed the verdict's Δ*, so the ``near_bound``
    component is live) and the verdict's failure codes. The replay
    prefix and the seed are deliberately excluded — they are the search
    space, not the behaviour."""
    fallback = (
        parse_replay_spec(result.cell.scheduler)[1]
        if is_replay_spec(result.cell.scheduler)
        else result.cell.scheduler
    )
    return (
        result.cell.family,
        result.cell.n,
        fallback,
        tuple(
            record_signature(r, result.verdict.opt) for r in result.records
        ),
        tuple(result.verdict.failures),
    )


class CoverageMap:
    """Seen-bucket set with hit counts; admits only new buckets."""

    def __init__(self) -> None:
        self._buckets: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self._buckets)

    def admit(self, signature: tuple) -> bool:
        """Record a hit; True iff the bucket is new."""
        fresh = signature not in self._buckets
        self._buckets[signature] = self._buckets.get(signature, 0) + 1
        return fresh

    def digest(self) -> str:
        """Order-independent sha256 over the bucket set (two campaigns
        that reached the same behaviours agree, whatever the path)."""
        payload = json.dumps(sorted(self._buckets), default=list)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def corpus_digest(cells: Sequence[ExplorationCell]) -> str:
    """sha256 over the corpus cells' canonical JSON, in admission order
    (the fuzz determinism check compares this across backends)."""
    payload = "\n".join(c.canonical() for c in cells)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- mutation engine ----------------------------------------------------------

#: Prefix/cell mutation operators, with what each explores.
MUTATION_OPS: dict[str, str] = {
    "extend": "append fresh random choices to the prefix (go deeper)",
    "perturb": "re-roll one recorded choice (branch one decision)",
    "truncate": "cut the prefix short (hand the tail to the fallback)",
    "splice": "head of one corpus prefix + tail of another",
    "reseed": "same schedule, different instance seed",
    "rechurn": "same schedule, different churn plan",
    "refallback": "same prefix, different fallback policy",
}

_OPS = tuple(MUTATION_OPS)

#: Instance seeds mutated via ``reseed`` stay below this bound (small
#: enough to keep shrink's downward seed scan meaningful).
_SEED_SPACE = 1 << 12


def _cell_prefix(cell: ExplorationCell) -> tuple[tuple[int, ...], str]:
    """(prefix, fallback) view of any cell; non-replay schedulers map to
    an empty prefix with themselves as fallback (``none`` → random)."""
    if is_replay_spec(cell.scheduler):
        return parse_replay_spec(cell.scheduler)
    if cell.scheduler == NO_SCHEDULER:
        return (), "random"
    return (), cell.scheduler


def mutate_cell(
    rng: np.random.Generator,
    pool: Sequence[ExplorationCell],
    spec: "FuzzSpec",
) -> ExplorationCell:
    """One mutation step: pick a base from *pool*, apply one operator.

    Every output is admissible by construction — prefixes are free-form
    ints (reduced modulo the head count at choose time) and every other
    field is drawn from the spec's validated axes.
    """
    base = pool[int(rng.integers(len(pool)))]
    op = _OPS[int(rng.integers(len(_OPS)))]
    prefix, fallback = _cell_prefix(base)
    if fallback not in spec.fallbacks:
        fallback = spec.fallbacks[0]

    if op == "extend" or (op in ("perturb", "truncate") and not prefix):
        grow = 1 + int(rng.integers(8))
        fresh = tuple(
            int(rng.integers(REPLAY_CHOICE_SPACE)) for _ in range(grow)
        )
        prefix = (prefix + fresh)[: spec.max_prefix]
    elif op == "perturb":
        i = int(rng.integers(len(prefix)))
        prefix = (
            prefix[:i]
            + (int(rng.integers(REPLAY_CHOICE_SPACE)),)
            + prefix[i + 1 :]
        )
    elif op == "truncate":
        prefix = prefix[: int(rng.integers(len(prefix)))]
    elif op == "splice":
        other, _ = _cell_prefix(pool[int(rng.integers(len(pool)))])
        cut_a = int(rng.integers(len(prefix) + 1))
        cut_b = int(rng.integers(len(other) + 1))
        prefix = (prefix[:cut_a] + other[cut_b:])[: spec.max_prefix]
    elif op == "reseed":
        base = base.with_(seed=int(rng.integers(_SEED_SPACE)))
    elif op == "rechurn":
        base = base.with_(
            churn=spec.churns[int(rng.integers(len(spec.churns)))]
        )
    elif op == "refallback":
        fallback = spec.fallbacks[int(rng.integers(len(spec.fallbacks)))]

    return base.with_(scheduler=replay_spec(prefix, fallback))


# -- campaign spec ------------------------------------------------------------


@dataclass(frozen=True)
class FuzzSpec:
    """One fuzz campaign, fully determined (the campaign is a pure
    function of this spec plus any seed-corpus cells)."""

    family: str = "gnp_sparse"
    sizes: tuple[int, ...] = (6, 8)
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    #: fallback policies the suffix of a prefix-replayed schedule draws
    #: from (also the ``refallback`` mutation's choices)
    fallbacks: tuple[str, ...] = ("random", "lifo")
    #: churn plans in play (the ``rechurn`` mutation's choices)
    churns: tuple[str, ...] = ("none", "restart_one", "restart_wave")
    delay: str = "unit"
    initial_method: str = "random"
    mode: str = "concurrent"
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    #: fuzzer RNG seed (mutation stream only — never execution)
    seed: int = 0
    #: total cells probed before the campaign stops
    budget: int = 64
    #: cells per probe batch (one executor round-trip each)
    batch: int = 8
    #: hard cap on mutated prefix length
    max_prefix: int = 64
    exact_limit: int = EXACT_LIMIT

    def __post_init__(self) -> None:
        if self.budget < 1 or self.batch < 1:
            raise AnalysisError("fuzz budget and batch must be >= 1")
        if self.max_prefix < 1 or self.max_prefix > REPLAY_PREFIX_MAX:
            raise AnalysisError(
                f"max_prefix must be in [1, {REPLAY_PREFIX_MAX}]"
            )
        check_spec(self)
        object.__setattr__(
            self, "fallbacks", FALLBACK.check_all(self.fallbacks)
        )

    def seed_cells(self) -> tuple[ExplorationCell, ...]:
        """The deterministic round-zero inputs: one empty-prefix replay
        cell per (size × churn × fallback × seed) grid point."""
        return tuple(
            ExplorationCell(
                family=self.family,
                n=n,
                seed=seed,
                scheduler=replay_spec((), fallback),
                delay=self.delay,
                initial_method=self.initial_method,
                mode=self.mode,
                algorithms=self.algorithms,
                churn=churn,
            )
            for n in self.sizes
            for churn in self.churns
            for fallback in self.fallbacks
            for seed in self.seeds
        )


# -- the loop -----------------------------------------------------------------


@dataclass(frozen=True)
class FuzzReport:
    """Everything a campaign produced, plus its determinism fingerprints."""

    spec: FuzzSpec
    probed: int
    rounds: int
    corpus: tuple[ExplorationCell, ...]
    coverage: int
    coverage_digest: str
    corpus_digest: str
    failures: tuple[ExplorationResult, ...]
    shrunk: tuple[ShrinkOutcome, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "spec": asdict(self.spec),
            "probed": self.probed,
            "rounds": self.rounds,
            "coverage": self.coverage,
            "coverage_digest": self.coverage_digest,
            "corpus_digest": self.corpus_digest,
            "corpus": [c.to_json_dict() for c in self.corpus],
            "failures": [r.to_json_dict() for r in self.failures],
            "shrunk": [
                {
                    "original": o.original.to_json_dict(),
                    "cell": o.cell.to_json_dict(),
                    "verdict": o.result.verdict.to_json_dict(),
                    "probes": o.probes,
                }
                for o in self.shrunk
            ],
        }


def load_corpus_cells(directory: str | Path) -> tuple[ExplorationCell, ...]:
    """Seed cells from a corpus directory of artifacts (sorted paths, so
    the seed order — and with it the campaign — is deterministic)."""
    from .artifacts import corpus_paths, load_artifact

    cells = []
    for path in corpus_paths(directory):
        cell, _verdict, _note = load_artifact(path)
        cells.append(cell)
    return tuple(cells)


def run_fuzz(
    spec: FuzzSpec,
    *,
    executor: Executor | None = None,
    jobs: int = 1,
    cache: ResultCache | str | Path | None = None,
    seed_corpus: Sequence[ExplorationCell] = (),
    max_shrink: int = 4,
    shrink_probes: int = 120,
) -> FuzzReport:
    """Run one coverage-guided campaign (deterministic in the inputs).

    Round zero probes the spec's grid of empty-prefix replay cells plus
    any *seed_corpus* cells; afterwards every batch is mutated from the
    coverage-admitted corpus. Failures are collected as they appear and
    the first *max_shrink* distinct failing cells are ddmin-shrunk after
    the budget is spent. The mutation stream never observes execution
    timing — only records and verdicts, which are themselves
    deterministic in the specs — so two campaigns with the same inputs
    produce identical reports whatever the backend (*executor* overrides
    *jobs* / *cache*, mirroring :func:`~repro.exploration.explore`).
    """
    rng = substream(spec.seed, "fuzz:mutate")
    pending = list(spec.seed_cells()) + list(seed_corpus)
    seen: set[str] = set()
    coverage = CoverageMap()
    corpus: list[ExplorationCell] = []
    failures: list[ExplorationResult] = []
    probed = rounds = 0

    # a campaign is many small batches: keep one worker pool across them
    own_executor = executor is None
    if executor is None:
        executor = probe_executor(jobs, cache, persistent=True)

    t = obs()
    try:
        with t.span("fuzz", budget=spec.budget, batch=spec.batch):
            while probed < spec.budget:
                want = min(spec.batch, spec.budget - probed)
                batch: list[ExplorationCell] = []
                attempts = 0
                while len(batch) < want and attempts < 64 * want:
                    attempts += 1
                    if pending:
                        candidate = pending.pop(0)
                    else:
                        base_pool = corpus if corpus else list(spec.seed_cells())
                        candidate = mutate_cell(rng, base_pool, spec)
                    key = candidate.canonical()
                    if key in seen:
                        continue
                    seen.add(key)
                    batch.append(candidate)
                if not batch:
                    break  # search space exhausted below the budget
                rounds += 1
                with t.span(
                    "fuzz.round", index=rounds, cells=len(batch)
                ):
                    results = explore(
                        batch, executor=executor, exact_limit=spec.exact_limit
                    )
                probed += len(batch)
                t.count("fuzz.cells", len(batch))
                for result in results:
                    if coverage.admit(result_signature(result)):
                        corpus.append(result.cell)
                        t.count("fuzz.corpus.admitted")
                    if not result.ok:
                        failures.append(result)
                        t.count("fuzz.failures")
            shrunk: list[ShrinkOutcome] = []
            with t.span("fuzz.shrink", failures=len(failures)):
                for result in failures[:max_shrink]:
                    shrunk.append(
                        shrink(
                            result.cell,
                            exact_limit=spec.exact_limit,
                            max_probes=shrink_probes,
                        )
                    )
    finally:
        pool = getattr(executor, "inner", executor)
        if own_executor and isinstance(pool, ParallelExecutor):
            pool.close()

    return FuzzReport(
        spec=spec,
        probed=probed,
        rounds=rounds,
        corpus=tuple(corpus),
        coverage=len(coverage),
        coverage_digest=coverage.digest(),
        corpus_digest=corpus_digest(corpus),
        failures=tuple(failures),
        shrunk=tuple(shrunk),
    )
