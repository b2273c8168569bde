"""Two-tier result cache for sweep cells: an in-memory LRU over one
SQLite table.

Completed cells live in ``<root>/results.sqlite3``, one row per cell:
its :func:`cache_key`, the salt and schema version it was written
under, and the JSON payload (spec + record). The LRU front means
repeated lookups within one process never touch the disk. A batched
:meth:`ResultCache.get_many` is one chunked ``SELECT … WHERE key IN
(…)``; a batched :meth:`ResultCache.put_many` is one ``BEGIN IMMEDIATE
… COMMIT`` transaction, so a batch lands whole or not at all, and
several processes sharing one directory are serialized by SQLite's file
locks (each waits up to :data:`BUSY_TIMEOUT_S`). Every operation opens
its own connection and closes it, so none crosses a worker fork.

Records are pure functions of their spec, which is what makes a cache
hit exactly as good as a re-run. ``cache_key`` is a content hash over
spec + schema version + salt, so a schema bump invalidates stale
entries by changing every key. A hit is verified on read: a row whose
payload is not the record of the requested key's spec is never served.

Any corruption — a file that is not a database, an undecodable payload,
a payload of another spec — is a cache *miss* with a one-line
:class:`RuntimeWarning`, never an exception; a database that cannot be
written makes ``put_many`` a warned, skipped write, and a re-put heals a
bad row. Lookups, ``stats`` and ``verify`` create nothing on disk, and
the cache counts and clears only its database file and journal.
``repro cache DIR --stats/--verify/--prune`` is the maintenance CLI.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..obs import current as obs
from .records import RunRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import RunSpec

__all__ = ["ResultCache", "CACHE_SCHEMA_VERSION", "cache_key", "MEMORY_ENTRIES", "BUSY_TIMEOUT_S"]

#: Bump when RunRecord/RunSpec semantics change: old entries become misses.
#: v2: records/specs gained the ``algorithm`` axis (registry PR); also
#: retires any v1 entries predating the PR 1 cutter cross-reply race fix.
#: v3: records/specs gained the ``fault`` axis (named fault plans) and
#: records the ``outcome`` field (scenario/campaign PR) — v2 entries
#: would deserialize fine but carry different run semantics, so they
#: must invalidate rather than alias the fault-free cell.
#: v4: records/specs gained the ``scheduler`` axis (adversarial schedule
#: policies, exploration PR) — a v3 entry has no scheduler field, so a
#: policy-scheduled run would alias the time-scheduled cell.
#: v5: records gained the ``events`` work metric (perf-trajectory PR) —
#: a v4 entry would deserialize with events=0 and silently zero the
#: benchmark gate's primary work metric.
#: v6: records/specs gained the ``churn`` axis (mid-run crash-restart /
#: link-flap plans, fuzzing PR) — a v5 entry has no churn field, so a
#: churned run would alias the churn-free cell. Replay-scheduler
#: choice-prefixes also enter the key in this version (as canonical
#: ``replay:...`` spec strings in the ``scheduler`` field).
#: v7: records gained the ``causal`` provenance digest (run-forensics
#: PR) — a v6 entry would deserialize with an empty digest and starve
#: the fuzzer's causal coverage signals on warm-cache campaigns.
#: v8: records gained the judge's ``lb`` and ``fr_improvable`` (one
#: F-R phase per completed run) — a v7 entry would deserialize with
#: ``lb=0`` and blank the campaign report's ``LB(Δ*)`` column.
#: v9: the judge's ``lb`` became the largest set bound over its
#: candidate sets (``graphs.set_bound``) — a v8 entry would serve the
#: weaker witness/cut-vertex ``lb``, which can only move up.
CACHE_SCHEMA_VERSION = 9

#: LRU budget of the in-memory tier (entries, not bytes — records are
#: small, flat dataclasses).
MEMORY_ENTRIES = 4096

#: How long one operation waits for another process's write transaction
#: before it gives up (and degrades to a warned miss or skipped write).
BUSY_TIMEOUT_S = 60.0

_DB_NAME = "results.sqlite3"
#: Keys per ``SELECT … IN (…)``: below SQLite's historic 999-variable cap.
_SELECT_CHUNK = 900
_CREATE_TABLE = """CREATE TABLE IF NOT EXISTS results
    (key TEXT PRIMARY KEY, salt TEXT NOT NULL, schema INTEGER NOT NULL, payload TEXT NOT NULL)"""


def _dumps(data: dict[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _key(spec: dict[str, Any], salt: str, schema: int) -> str:
    canonical = _dumps({"schema": schema, "salt": salt, "spec": spec})
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cache_key(spec: "RunSpec", *, salt: str = "") -> str:
    """Stable content hash of one run configuration.

    *salt* partitions the key space for non-default cell runners (e.g.
    the exploration probe, whose error-capturing records must never be
    served to a plain sweep of the same spec).
    """
    return _key(spec.to_json_dict(), salt, CACHE_SCHEMA_VERSION)


def _decode_row(key: str, salt: str, schema: int, payload: str) -> RunRecord:
    """The record one row holds. Raises ``ValueError(problem, detail)``
    unless the payload decodes and *key* is the key of its spec under
    *salt* and *schema*."""
    try:
        data = json.loads(payload)
        record = RunRecord.from_json_dict(data["record"])
        own_key = _key(data["spec"], salt, schema)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError("undecodable payload", str(exc)) from None
    if own_key != key:
        raise ValueError("payload of another spec", f"salt {salt!r}, schema v{schema}")
    return record


class ResultCache:
    """Two-tier (memory LRU over one SQLite table) store under *root*.

    ``hits`` / ``misses`` count lookups since construction (surfaced by
    the CLI's post-sweep summary line and the scaling benchmark); a
    batched :meth:`get_many` counts every spec it is asked about.
    """

    def __init__(self, root: str | Path, *, salt: str = "") -> None:
        self.root = Path(root)
        self.path = self.root / _DB_NAME
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self._memory: OrderedDict[str, RunRecord] = OrderedDict()
        # per-batch corruption-warning dedup state (see _warn)
        self._warned: set[tuple[Any, ...]] = set()
        self._suppressed = 0

    def _warn(
        self,
        message: str,
        *,
        dedup: tuple[Any, ...] | None = None,
        outcome: str = "treated as a miss",
        **context: Any,
    ) -> None:
        """The single corruption funnel: every corruption mode reports
        through here. Each occurrence increments the ``cache.corruption``
        telemetry counter; the first occurrence per *dedup* key within
        one batch emits the :class:`RuntimeWarning` and a structured
        ``cache.corruption`` event carrying *context* (the key), and
        repeats are suppressed — a 256-entry torn batch warns once plus
        a summary line, not 256 times.
        """
        obs().count("cache.corruption")
        if dedup is not None:
            if dedup in self._warned:
                self._suppressed += 1
                return
            self._warned.add(dedup)
        obs().event("cache.corruption", detail=message, **context)
        warnings.warn(
            f"result cache {self.root}: {message} ({outcome})",
            RuntimeWarning,
            stacklevel=4,
        )

    def _end_warn_batch(self) -> None:
        self._warned.clear()
        if self._suppressed:
            warnings.warn(
                f"result cache {self.root}: {self._suppressed} similar "
                "corruption warning(s) suppressed in this batch",
                RuntimeWarning,
                stacklevel=3,
            )
            self._suppressed = 0

    # -- the database --------------------------------------------------

    def _connect(self, mode: str) -> sqlite3.Connection:
        """A fresh autocommit connection; only *mode* ``rwc`` creates the file."""
        uri = f"{self.path.absolute().as_uri()}?mode={mode}"
        return sqlite3.connect(uri, uri=True, timeout=BUSY_TIMEOUT_S, isolation_level=None)

    def _rows(self, *queries: tuple[str, Sequence[Any]]) -> list[tuple[Any, ...]]:
        """Every row of each ``(sql, params)`` query, read through one
        short-lived connection. No database yet, or one whose first
        batch has not committed, reads as no rows; an unreadable one
        raises :class:`sqlite3.Error`."""
        if not queries or not self.path.is_file():
            return []
        con = self._connect("rw")
        try:
            return [row for sql, params in queries for row in con.execute(sql, params)]
        except sqlite3.OperationalError as exc:
            if str(exc).startswith("no such table"):
                return []
            raise
        finally:
            con.close()

    def _read(self, *queries: tuple[str, Sequence[Any]]) -> list[tuple[Any, ...]]:
        """:meth:`_rows`, with an unreadable database a warned empty read."""
        try:
            return self._rows(*queries)
        except sqlite3.Error as exc:
            self._warn(f"unreadable database: {exc}", dedup=("database",))
            return []

    def _write(self, sql: str, rows: Sequence[Sequence[Any]]) -> int | None:
        """Run *sql* once per row in one ``BEGIN IMMEDIATE`` transaction.
        Returns the rows changed, or ``None`` after a warned failure."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            con = self._connect("rwc")
            try:
                con.execute("BEGIN IMMEDIATE")
                con.execute(_CREATE_TABLE)
                changed = con.executemany(sql, rows).rowcount
                con.execute("COMMIT")
                return changed
            finally:
                con.close()  # rolls back an unfinished transaction
        except (OSError, sqlite3.Error) as exc:
            self._warn(
                f"unwritable database: {exc}", dedup=("database",), outcome="write skipped"
            )
            return None

    def _memory_put(self, key: str, record: RunRecord) -> None:
        self._memory[key] = record
        self._memory.move_to_end(key)
        while len(self._memory) > MEMORY_ENTRIES:
            self._memory.popitem(last=False)

    # -- batched lookups (the executor fast path) ----------------------

    def get_many(self, specs: Sequence["RunSpec"]) -> list[RunRecord | None]:
        """Look every spec up in one pass: memory tier first, then one
        chunked ``SELECT`` for the rest. Misses come back as ``None`` in
        place — the result always has ``len(specs)`` slots, in spec
        order."""
        out: list[RunRecord | None] = [None] * len(specs)
        if not specs:
            return out
        pending: dict[str, list[int]] = {}
        for i, spec in enumerate(specs):
            key = cache_key(spec, salt=self.salt)
            record = self._memory.get(key)
            if record is not None:
                self._memory.move_to_end(key)
                out[i] = record
            else:
                pending.setdefault(key, []).append(i)
        memory_hits = len(specs) - sum(map(len, pending.values()))
        disk_hits = 0
        wanted = list(pending)
        queries = []
        for start in range(0, len(wanted), _SELECT_CHUNK):
            chunk = wanted[start : start + _SELECT_CHUNK]
            marks = ",".join("?" * len(chunk))
            queries.append(
                (f"SELECT key, schema, payload FROM results WHERE key IN ({marks})", chunk)
            )
        for key, schema, payload in self._read(*queries):
            try:
                record = _decode_row(key, self.salt, schema, payload)
            except ValueError as exc:
                problem, detail = exc.args
                self._warn(
                    f"entry {key[:12]}…: {problem} ({detail})", dedup=(problem,), key=key[:12]
                )
                continue
            self._memory_put(key, record)
            for i in pending[key]:
                out[i] = record
            disk_hits += len(pending[key])
        self._end_warn_batch()
        self.hits += memory_hits + disk_hits
        missed = len(specs) - memory_hits - disk_hits
        self.misses += missed
        t = obs()
        t.count("cache.get.batches")
        t.count("cache.get.specs", len(specs))
        for counter, n in (
            ("cache.hits.memory", memory_hits), ("cache.hits.disk", disk_hits),
            ("cache.misses", missed),
        ):
            if n:
                t.count(counter, n)
        return out

    def put_many(self, pairs: Iterable[tuple["RunSpec", RunRecord]]) -> int:
        """Store a batch as one transaction (it lands whole or not at
        all; a row already there is replaced). Returns how many entries
        were written: 0 after a warned failure."""
        pairs = list(pairs)
        if not pairs:
            return 0
        rows = []
        for spec, record in pairs:
            key = cache_key(spec, salt=self.salt)
            payload = _dumps({"spec": spec.to_json_dict(), "record": record.to_json_dict()})
            rows.append((key, self.salt, CACHE_SCHEMA_VERSION, payload))
            self._memory_put(key, record)
        written = self._write("INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?)", rows)
        self._end_warn_batch()
        if written is None:
            return 0
        t = obs()
        t.count("cache.put.batches")
        t.count("cache.put.entries", len(rows))
        return len(rows)

    # -- single-entry API (unchanged call sites) -----------------------

    def get(self, spec: "RunSpec") -> RunRecord | None:
        return self.get_many([spec])[0]

    def put(self, spec: "RunSpec", record: RunRecord) -> None:
        self.put_many([(spec, record)])

    # -- maintenance (the `repro cache` CLI surface) -------------------

    def stats(self) -> dict[str, int]:
        """Entry/byte counts plus the active schema version."""
        return {
            "entries": len(self),
            "bytes": self.path.stat().st_size if self.path.is_file() else 0,
            "schema": CACHE_SCHEMA_VERSION,
        }

    def verify(self) -> list[str]:
        """Database consistency problems (empty list = healthy).

        Runs SQLite's ``integrity_check``, then checks every row: its
        payload decodes into a spec and a record, and its key is the
        :func:`cache_key` of that spec under the row's salt and schema.
        """
        try:
            problems = [
                f"integrity: {message}"
                for (message,) in self._rows(("PRAGMA integrity_check", ()))
                if message != "ok"
            ]
            rows = self._rows(
                ("SELECT key, salt, schema, payload FROM results ORDER BY key", ())
            )
        except sqlite3.Error as exc:
            return [f"unreadable database: {exc}"]
        for key, salt, schema, payload in rows:
            try:
                _decode_row(key, salt, schema, payload)
            except ValueError as exc:
                problem, detail = exc.args
                problems.append(f"{key[:12]}…: {problem} ({detail})")
        return problems

    def prune(self) -> int:
        """Drop entries recorded under a stale schema version. Returns
        how many entries were dropped."""
        if not self.path.is_file():
            return 0
        dropped = self._write(
            "DELETE FROM results WHERE schema != ?", [(CACHE_SCHEMA_VERSION,)]
        )
        self._end_warn_batch()
        return dropped or 0

    # -- housekeeping --------------------------------------------------

    def __len__(self) -> int:
        """Distinct entries servable from disk."""
        ((count,),) = self._read(("SELECT COUNT(*) FROM results", ())) or [(0,)]
        self._end_warn_batch()
        return count

    def clear(self) -> int:
        """Delete all entries; returns how many."""
        removed = len(self)
        for path in (self.path, self.path.with_name(f"{_DB_NAME}-journal")):
            path.unlink(missing_ok=True)
        self._memory.clear()
        return removed
