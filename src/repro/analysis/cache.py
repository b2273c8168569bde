"""Packed two-tier result cache for sweep cells.

The throughput layer under every executor: completed cells are stored in
an **append-only segment store** (``segments/seg-<nnnnn>.pack`` files of
concatenated JSON payloads) addressed by a single ``index.json`` mapping
each :func:`cache_key` to ``[segment, offset, length, schema]``, with an
in-memory LRU front so repeated lookups within one process never touch
the disk at all. Batched :meth:`ResultCache.get_many` /
:meth:`ResultCache.put_many` cost one index load and one fsync'd segment
append per *batch* instead of one file open per *cell*, which is what
makes warm-cache campaign replays cells/sec-bound rather than
syscall-bound.

Records are pure functions of their spec, which is what makes a cache
hit exactly as good as a re-run. ``cache_key`` is a content hash over
spec + schema version + salt, so a schema bump invalidates stale
entries by changing every key.

Durability and robustness:

* ``put_many`` appends payload bytes and fsyncs the segment **before**
  atomically replacing the index (write-to-temp + ``os.replace``), so a
  crash mid-batch leaves at worst orphan bytes in a segment — never a
  torn index or an index entry pointing at unwritten data;
* any corruption — a truncated segment, a missing or unreadable index,
  an undecodable entry — is a cache *miss* with a one-line
  :class:`RuntimeWarning`, never an exception;
* the store assumes one writer at a time per directory (the executor
  layer only writes from the parent process); concurrent *readers* are
  always safe.

The segment store is the only layout: the cache reads, writes, counts
and clears nothing but its own ``index.json`` and ``segments/`` files,
so other files under the root are left alone. ``repro cache DIR
--stats/--verify/--prune`` exposes the maintenance surface on the CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..obs import current as obs
from .records import RunRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import RunSpec

__all__ = [
    "ResultCache",
    "CACHE_SCHEMA_VERSION",
    "cache_key",
    "DEFAULT_MEMORY_ENTRIES",
    "DEFAULT_SEGMENT_BYTES",
]

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
CACHE_SCHEMA_VERSION = 7

#: Default LRU budget of the in-memory tier (entries, not bytes — records
#: are small, flat dataclasses). 0 disables the tier.
DEFAULT_MEMORY_ENTRIES = 4096

#: Segment roll-over threshold: a ``put_many`` batch opens a fresh
#: segment once the current one has grown past this many bytes, keeping
#: individual pack files re-readable in one buffered pass.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024

_INDEX_NAME = "index.json"
_SEGMENT_DIR = "segments"
_INDEX_LAYOUT = 1


def cache_key(spec: "RunSpec", *, salt: str = "") -> str:
    """Stable content hash of one run configuration.

    *salt* partitions the key space for non-default cell runners (e.g.
    the exploration probe, whose error-capturing records must never be
    served to a plain sweep of the same spec).
    """
    canonical = json.dumps(
        {"schema": CACHE_SCHEMA_VERSION, "salt": salt, "spec": spec.to_json_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _encode_payload(spec: "RunSpec", record: RunRecord) -> bytes:
    return json.dumps(
        {"spec": spec.to_json_dict(), "record": record.to_json_dict()},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


class ResultCache:
    """Two-tier (memory LRU over packed segments) store under *root*.

    ``hits`` / ``misses`` count lookups since construction (surfaced by
    the CLI's post-sweep summary line and the scaling benchmark); a
    batched :meth:`get_many` counts every spec it is asked about.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        salt: str = "",
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.salt = salt
        self.memory_entries = memory_entries
        self.segment_bytes = segment_bytes
        self.hits = 0
        self.misses = 0
        self._memory: OrderedDict[str, RunRecord] = OrderedDict()
        self._index: dict[str, list[Any]] | None = None
        self._index_stamp: tuple[int, int] | None = None
        # per-batch corruption-warning dedup state (see _warn)
        self._warned: set[tuple[Any, ...]] = set()
        self._suppressed = 0

    # -- paths ---------------------------------------------------------

    @property
    def _index_path(self) -> Path:
        return self.root / _INDEX_NAME

    @property
    def _segment_dir(self) -> Path:
        return self.root / _SEGMENT_DIR

    def _segment_path(self, name: str) -> Path:
        return self._segment_dir / name

    def _warn(
        self,
        message: str,
        *,
        dedup: tuple[Any, ...] | None = None,
        **context: Any,
    ) -> None:
        """The single corruption funnel: every corruption mode reports
        through here. Each occurrence increments the ``cache.corruption``
        telemetry counter; the first occurrence per *dedup* key within
        one batch emits the :class:`RuntimeWarning` and a structured
        ``cache.corruption`` event carrying *context* (segment / key /
        offset), and repeats are suppressed — a 256-entry torn batch
        warns once plus a summary line, not 256 times.
        """
        obs().count("cache.corruption")
        if dedup is not None:
            if dedup in self._warned:
                self._suppressed += 1
                return
            self._warned.add(dedup)
        obs().event("cache.corruption", detail=message, **context)
        warnings.warn(
            f"result cache {self.root}: {message} (treated as a miss)",
            RuntimeWarning,
            stacklevel=4,
        )

    def _begin_warn_batch(self) -> None:
        self._warned.clear()
        self._suppressed = 0

    def _end_warn_batch(self) -> None:
        if self._suppressed:
            warnings.warn(
                f"result cache {self.root}: {self._suppressed} similar "
                "corruption warning(s) suppressed in this batch",
                RuntimeWarning,
                stacklevel=3,
            )
            self._suppressed = 0

    # -- index ---------------------------------------------------------

    def _load_index(self) -> dict[str, list[Any]]:
        """The on-disk index, parsed once and re-read only when its
        stat fingerprint changes (another process wrote a batch)."""
        try:
            st = os.stat(self._index_path)
            stamp = (st.st_mtime_ns, st.st_size)
        except OSError:
            # no index yet (fresh cache) — not an error
            self._index = {}
            self._index_stamp = None
            return self._index
        if self._index is not None and stamp == self._index_stamp:
            return self._index
        try:
            data = json.loads(self._index_path.read_text(encoding="utf-8"))
            if data.get("layout") != _INDEX_LAYOUT:
                raise ValueError(f"unsupported index layout {data.get('layout')!r}")
            entries = data["entries"]
            if not isinstance(entries, dict):
                raise TypeError("index entries must be an object")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._warn(f"unreadable index: {exc}")
            entries = {}
        self._index = entries
        self._index_stamp = stamp
        return entries

    def _write_index(self, entries: dict[str, list[Any]]) -> None:
        payload = json.dumps(
            {"layout": _INDEX_LAYOUT, "entries": entries},
            sort_keys=True,
            separators=(",", ":"),
        )
        tmp = self._index_path.with_name(f".{_INDEX_NAME}.{os.getpid()}.tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, self._index_path)
        st = os.stat(self._index_path)
        self._index = entries
        self._index_stamp = (st.st_mtime_ns, st.st_size)

    # -- memory tier ---------------------------------------------------

    def _memory_get(self, key: str) -> RunRecord | None:
        record = self._memory.get(key)
        if record is not None:
            self._memory.move_to_end(key)
        return record

    def _memory_put(self, key: str, record: RunRecord) -> None:
        if self.memory_entries <= 0:
            return
        self._memory[key] = record
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    # -- decode --------------------------------------------------------

    def _decode_record(self, blob: bytes) -> RunRecord:
        data = json.loads(blob.decode("utf-8"))
        return RunRecord.from_json_dict(data["record"])

    # -- batched lookups (the executor fast path) ----------------------

    def get_many(self, specs: Sequence["RunSpec"]) -> list[RunRecord | None]:
        """Look every spec up in one pass: memory tier first, then one
        index load and one buffered read per touched segment. Misses
        come back as ``None`` in place — the result always has
        ``len(specs)`` slots, in spec order."""
        out: list[RunRecord | None] = [None] * len(specs)
        if not specs:
            return out
        self._begin_warn_batch()
        tiers = {"memory": 0, "disk": 0, "miss": 0}
        keys = [cache_key(spec, salt=self.salt) for spec in specs]
        index = self._load_index()
        # (segment -> [(slot, key, offset, length)]) so each pack file is
        # opened once per batch no matter how many entries it serves
        pending: dict[str, list[tuple[int, str, int, int]]] = {}
        for i, key in enumerate(keys):
            record = self._memory_get(key)
            if record is not None:
                out[i] = record
                self.hits += 1
                tiers["memory"] += 1
                continue
            entry = index.get(key)
            if entry is not None:
                try:
                    segment, offset, length = entry[0], int(entry[1]), int(entry[2])
                except (IndexError, TypeError, ValueError) as exc:
                    self._warn(
                        f"malformed index entry for {key[:12]}…: {exc}",
                        dedup=("index-entry",),
                        key=key[:12],
                    )
                    self.misses += 1
                    tiers["miss"] += 1
                    continue
                pending.setdefault(segment, []).append((i, key, offset, length))
            else:
                self.misses += 1
                tiers["miss"] += 1
        for segment, wanted in pending.items():
            try:
                fh = open(self._segment_path(segment), "rb")
            except OSError as exc:
                self._warn(f"missing segment {segment}: {exc}", segment=segment)
                self.misses += len(wanted)
                tiers["miss"] += len(wanted)
                continue
            with fh:
                for i, key, offset, length in wanted:
                    try:
                        fh.seek(offset)
                        blob = fh.read(length)
                        if len(blob) != length:
                            raise ValueError(
                                f"truncated segment ({len(blob)}/{length} bytes)"
                            )
                        record = self._decode_record(blob)
                    except (OSError, ValueError, KeyError, TypeError) as exc:
                        self._warn(
                            f"undecodable entry in {segment}@{offset}: {exc}",
                            dedup=("entry", segment),
                            segment=segment,
                            offset=offset,
                            key=key[:12],
                        )
                        self.misses += 1
                        tiers["miss"] += 1
                        continue
                    out[i] = record
                    self._memory_put(key, record)
                    self.hits += 1
                    tiers["disk"] += 1
        self._end_warn_batch()
        t = obs()
        t.count("cache.get.batches")
        t.count("cache.get.specs", len(specs))
        for tier in ("memory", "disk"):
            if tiers[tier]:
                t.count(f"cache.hits.{tier}", tiers[tier])
        if tiers["miss"]:
            t.count("cache.misses", tiers["miss"])
        return out

    def put_many(self, pairs: Iterable[tuple["RunSpec", RunRecord]]) -> int:
        """Append a batch: one segment append + fsync, then one atomic
        index replace (in that order — crash-safe by construction).
        Returns how many entries were written."""
        pairs = list(pairs)
        if not pairs:
            return 0
        self._begin_warn_batch()
        encoded = [
            (cache_key(spec, salt=self.salt), _encode_payload(spec, record))
            for spec, record in pairs
        ]
        entries = dict(self._load_index())
        self._segment_dir.mkdir(parents=True, exist_ok=True)
        segment = self._pick_segment()
        path = self._segment_path(segment)
        with open(path, "ab") as fh:
            offset = fh.tell()
            fh.write(b"".join(blob for _, blob in encoded))
            fh.flush()
            os.fsync(fh.fileno())
        for key, blob in encoded:
            entries[key] = [segment, offset, len(blob), CACHE_SCHEMA_VERSION]
            offset += len(blob)
        self._write_index(entries)
        for (spec, record), (key, _) in zip(pairs, encoded):
            self._memory_put(key, record)
        self._end_warn_batch()
        t = obs()
        t.count("cache.put.batches")
        t.count("cache.put.entries", len(encoded))
        return len(encoded)

    def _pick_segment(self) -> str:
        """The current append target: the newest segment while it is
        under the roll-over threshold, else a fresh one."""
        existing = sorted(self._segment_dir.glob("seg-*.pack"))
        if existing:
            newest = existing[-1]
            try:
                if newest.stat().st_size < self.segment_bytes:
                    return newest.name
            except OSError:
                pass
            tail = int(newest.stem.split("-")[1]) + 1
        else:
            tail = 0
        return f"seg-{tail:05d}.pack"

    # -- single-entry API (unchanged call sites) -----------------------

    def get(self, spec: "RunSpec") -> RunRecord | None:
        return self.get_many([spec])[0]

    def put(self, spec: "RunSpec", record: RunRecord) -> None:
        self.put_many([(spec, record)])

    # -- maintenance (the `repro cache` CLI surface) -------------------

    def stats(self) -> dict[str, int]:
        """Entry/segment/byte counts plus the active schema version."""
        index = self._load_index()
        segments = sorted(self._segment_dir.glob("seg-*.pack"))
        packed_bytes = 0
        for seg in segments:
            try:
                packed_bytes += seg.stat().st_size
            except OSError:
                pass
        return {
            "entries": len(index),
            "segments": len(segments),
            "bytes": packed_bytes,
            "schema": CACHE_SCHEMA_VERSION,
            "memory_entries": len(self._memory),
            "memory_budget": self.memory_entries,
        }

    def verify(self) -> list[str]:
        """Index/segment consistency problems (empty list = healthy).

        Checks every index entry: the segment exists, the byte range is
        inside it, and the payload decodes into a record.
        """
        problems: list[str] = []
        index = self._load_index()
        sizes: dict[str, int | None] = {}
        handles: dict[str, Any] = {}
        try:
            for key in sorted(index):
                entry = index[key]
                try:
                    segment, offset, length = entry[0], int(entry[1]), int(entry[2])
                except (IndexError, TypeError, ValueError):
                    problems.append(f"{key[:12]}…: malformed index entry {entry!r}")
                    continue
                if segment not in sizes:
                    try:
                        sizes[segment] = self._segment_path(segment).stat().st_size
                        handles[segment] = open(self._segment_path(segment), "rb")
                    except OSError:
                        sizes[segment] = None
                size = sizes[segment]
                if size is None:
                    problems.append(f"{key[:12]}…: segment {segment} is missing")
                    continue
                if offset + length > size:
                    problems.append(
                        f"{key[:12]}…: range {offset}+{length} beyond "
                        f"{segment} ({size} bytes; truncated segment?)"
                    )
                    continue
                fh = handles[segment]
                fh.seek(offset)
                try:
                    self._decode_record(fh.read(length))
                except (ValueError, KeyError, TypeError) as exc:
                    problems.append(
                        f"{key[:12]}…: undecodable payload in "
                        f"{segment}@{offset}: {exc}"
                    )
        finally:
            for fh in handles.values():
                fh.close()
        return problems

    def prune(self) -> int:
        """Drop packed entries recorded under a stale schema version.

        Segment bytes are not compacted (the store is append-only); the
        index simply stops referencing the stale payloads. Returns how
        many entries were dropped.
        """
        index = self._load_index()
        keep = {
            key: entry
            for key, entry in index.items()
            if len(entry) > 3 and entry[3] == CACHE_SCHEMA_VERSION
        }
        dropped = len(index) - len(keep)
        if dropped:
            for key in set(index) - set(keep):
                self._memory.pop(key, None)
            self._write_index(keep)
        return dropped

    # -- housekeeping --------------------------------------------------

    def __len__(self) -> int:
        """Distinct entries servable from disk."""
        return len(self._load_index())

    def clear(self) -> int:
        """Delete all entries; returns how many."""
        removed = len(self)
        for seg in self._segment_dir.glob("seg-*.pack"):
            seg.unlink(missing_ok=True)
        self._index_path.unlink(missing_ok=True)
        self._memory.clear()
        self._index = None
        self._index_stamp = None
        return removed
