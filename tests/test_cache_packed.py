"""Two-tier ResultCache over one SQLite table: the on-disk layout,
batched lookups, the LRU memory tier, corruption robustness (every mode
is a warned miss, never an exception), verify-on-read, atomic batches,
concurrent writers, and leaving alone the files under the root that the
cache did not write."""

import multiprocessing
import sqlite3
import warnings
from dataclasses import replace

import pytest

from repro.analysis import ResultCache, RunSpec, cache_key, run_single
from repro.analysis import cache as cache_mod

DB = "results.sqlite3"


def make_pairs(count, family="ring", n=8):
    """(spec, record) pairs for distinct seeds — each seed is actually
    run, so the cache round-trips genuine records."""
    pairs = []
    for seed in range(count):
        spec = RunSpec(family=family, n=n, seed=seed)
        pairs.append((spec, run_single(family, n, seed=seed)))
    return pairs


def sql(root, statement, *params):
    """Run one statement against the cache's database behind its back."""
    con = sqlite3.connect(root / DB)
    try:
        with con:
            return con.execute(statement, params).fetchall()
    finally:
        con.close()


def set_payload(root, spec, payload):
    sql(root, "UPDATE results SET payload = ? WHERE key = ?", payload, cache_key(spec))


def caught_messages(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [str(w.message) for w in caught]


class TestPackedLayout:
    def test_put_many_writes_one_database_file(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        pairs = make_pairs(4)
        assert cache.put_many(pairs) == 4
        assert [p.name for p in root.iterdir()] == [DB]
        assert sql(root, "SELECT salt, schema FROM results") == [
            ("", cache_mod.CACHE_SCHEMA_VERSION)
        ] * 4
        assert len(cache) == 4

    def test_lookups_and_maintenance_create_nothing(self, tmp_path):
        root = tmp_path / "missing"
        cache = ResultCache(root)
        (spec, _), *_ = make_pairs(1)
        assert cache.get(spec) is None
        assert len(cache) == 0 and cache.verify() == [] and cache.prune() == 0
        assert cache.stats()["entries"] == cache.stats()["bytes"] == 0
        assert not root.exists()

    def test_get_many_preserves_order_and_marks_misses_in_place(self, tmp_path):
        cache = ResultCache(tmp_path)
        pairs = make_pairs(3)
        cache.put_many(pairs[:2])
        fresh = ResultCache(tmp_path)  # cold memory tier: disk answers
        specs = [pairs[2][0], pairs[0][0], pairs[1][0]]
        got = fresh.get_many(specs)
        assert got == [None, pairs[0][1], pairs[1][1]]
        assert fresh.hits == 2 and fresh.misses == 1

    def test_reader_sees_another_writers_batch(self, tmp_path):
        reader = ResultCache(tmp_path)
        (spec, record), *_ = pairs = make_pairs(2)
        assert reader.get(spec) is None
        ResultCache(tmp_path).put_many(pairs)
        assert reader.get(spec) == record

    def test_salts_partition_the_table(self, tmp_path):
        (spec, record), *_ = make_pairs(1)
        ResultCache(tmp_path, salt="probe").put(spec, record)
        assert ResultCache(tmp_path).get(spec) is None
        assert ResultCache(tmp_path, salt="probe").get(spec) == record


class TestMemoryTier:
    def test_lru_never_exceeds_its_budget(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_mod, "MEMORY_ENTRIES", 2)
        cache = ResultCache(tmp_path)
        pairs = make_pairs(5)
        cache.put_many(pairs)
        assert len(cache._memory) <= 2
        assert all(r is not None for r in cache.get_many([s for s, _ in pairs]))
        assert len(cache._memory) <= 2

    def test_memory_tier_answers_without_the_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        (spec, record), *_ = make_pairs(1)
        cache.put(spec, record)
        (tmp_path / DB).unlink()  # disk gone, memory still warm
        assert cache.get(spec) == record


class TestCorruptionIsAMiss:
    """Every corruption mode degrades to a warned miss — a damaged cache
    must never take a sweep down, and a re-put must heal it."""

    def make_cold(self, tmp_path, count=2):
        pairs = make_pairs(count)
        ResultCache(tmp_path).put_many(pairs)
        return pairs, ResultCache(tmp_path)

    def test_truncated_database(self, tmp_path):
        pairs, cache = self.make_cold(tmp_path)
        db = tmp_path / DB
        db.write_bytes(db.read_bytes()[:1000])  # header kept, pages cut off
        with pytest.warns(RuntimeWarning, match="treated as a miss"):
            assert cache.get_many([s for s, _ in pairs]) == [None, None]

    def test_file_that_is_not_a_database(self, tmp_path):
        pairs, cache = self.make_cold(tmp_path)
        (tmp_path / DB).write_bytes(b"x" * 4096)
        with pytest.warns(RuntimeWarning, match="unreadable database"):
            assert cache.get_many([s for s, _ in pairs]) == [None, None]
        # writing is a warned, skipped write; the caller keeps its records
        with pytest.warns(RuntimeWarning, match="write skipped"):
            assert cache.put_many(pairs) == 0

    def test_missing_database_is_a_plain_miss(self, tmp_path):
        # indistinguishable from a fresh cache: a miss, but not a warning
        pairs, cache = self.make_cold(tmp_path)
        (tmp_path / DB).unlink()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get(pairs[0][0]) is None

    def test_undecodable_entry(self, tmp_path):
        pairs, cache = self.make_cold(tmp_path, count=1)
        set_payload(tmp_path, pairs[0][0], "{ not json")
        with pytest.warns(RuntimeWarning, match="undecodable payload"):
            assert cache.get(pairs[0][0]) is None

    def test_payload_of_another_spec_is_never_served(self, tmp_path):
        """Verify on read: a row whose payload belongs to another spec is
        a warned ``cache.corruption`` miss, never a hit."""
        from repro import obs

        pairs, cache = self.make_cold(tmp_path)
        (other,) = sql(
            tmp_path, "SELECT payload FROM results WHERE key = ?", cache_key(pairs[1][0])
        )
        set_payload(tmp_path, pairs[0][0], other[0])
        with obs.capture() as t, pytest.warns(RuntimeWarning, match="another spec"):
            got = cache.get_many([s for s, _ in pairs])
        assert got == [None, pairs[1][1]]
        assert t.counters["cache.corruption"] == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_stale_schema_row_is_a_miss(self, tmp_path):
        pairs, cache = self.make_cold(tmp_path, count=1)
        sql(tmp_path, "UPDATE results SET schema = schema - 1")
        with pytest.warns(RuntimeWarning, match="another spec"):
            assert cache.get(pairs[0][0]) is None

    def test_corruption_heals_on_re_put(self, tmp_path):
        pairs, cache = self.make_cold(tmp_path, count=1)
        set_payload(tmp_path, pairs[0][0], "{ not json")
        with pytest.warns(RuntimeWarning):
            assert cache.get(pairs[0][0]) is None
        cache.put_many(pairs)
        assert ResultCache(tmp_path).get(pairs[0][0]) == pairs[0][1]


class TestCrashSafety:
    def test_failed_batch_lands_nothing(self, tmp_path, monkeypatch):
        """A batch that cannot commit (here: another connection holds the
        write lock past the busy timeout) is rolled back whole and
        warned about, and the next batch lands cleanly."""
        pairs = make_pairs(3)
        ResultCache(tmp_path).put_many(pairs[:1])
        monkeypatch.setattr(cache_mod, "BUSY_TIMEOUT_S", 0.05)
        holder = sqlite3.connect(tmp_path / DB, isolation_level=None)
        try:
            holder.execute("BEGIN EXCLUSIVE")
            with pytest.warns(RuntimeWarning, match="write skipped"):
                assert ResultCache(tmp_path).put_many(pairs[1:]) == 0
        finally:
            holder.close()
        fresh = ResultCache(tmp_path)
        assert fresh.get_many([s for s, _ in pairs]) == [pairs[0][1], None, None]
        assert fresh.put_many(pairs[1:]) == 2
        assert ResultCache(tmp_path).get_many([s for s, _ in pairs]) == [r for _, r in pairs]


def _stress_writer(root, writer, batches, size, base):
    warnings.simplefilter("error")  # any cache warning fails the writer
    cache = ResultCache(root)
    for batch in range(batches):
        pairs = []
        for j in range(size):
            seed = (writer * batches + batch) * size + j
            pairs.append((RunSpec(family="ring", n=8, seed=seed), replace(base, seed=seed)))
        assert cache.put_many(pairs) == size


class TestConcurrentWriters:
    def test_no_lost_or_wrong_records(self, tmp_path):
        """3 processes × 50 batches × 4 entries into one directory, then
        one fresh reader: every entry is there, each is its own spec's
        record, and nobody warned."""
        writers, batches, size = 3, 50, 4
        base = run_single("ring", 8, seed=0)
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_stress_writer, args=(tmp_path, w, batches, size, base))
            for w in range(writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0] * writers
        total = writers * batches * size
        specs = [RunSpec(family="ring", n=8, seed=seed) for seed in range(total)]
        got, messages = caught_messages(lambda: ResultCache(tmp_path).get_many(specs))
        assert messages == []
        assert sum(r is None for r in got) == 0
        assert [r.seed for r in got] == list(range(total))
        assert ResultCache(tmp_path).verify() == []


class TestMaintenance:
    def test_stats_counts_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_many(make_pairs(2))
        s = cache.stats()
        assert s["entries"] == 2
        assert s["bytes"] == (tmp_path / DB).stat().st_size > 0
        assert s["schema"] >= 5
        assert set(s) == {"entries", "bytes", "schema"}

    def test_verify_clean_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_many(make_pairs(3))
        ResultCache(tmp_path, salt="probe").put_many(make_pairs(1))
        assert cache.verify() == []

    def test_verify_reports_undecodable_and_mismatched_rows(self, tmp_path):
        pairs = make_pairs(3)
        ResultCache(tmp_path).put_many(pairs)
        set_payload(tmp_path, pairs[0][0], "{ not json")
        sql(tmp_path, "UPDATE results SET salt = 'probe' WHERE key = ?", cache_key(pairs[1][0]))
        problems = ResultCache(tmp_path).verify()
        assert len(problems) == 2
        assert any("undecodable payload" in p for p in problems)
        assert any("another spec (salt 'probe'" in p for p in problems)

    def test_verify_reports_an_unreadable_database(self, tmp_path):
        ResultCache(tmp_path).put_many(make_pairs(1))
        (tmp_path / DB).write_bytes(b"x" * 4096)
        (problem,) = ResultCache(tmp_path).verify()
        assert problem.startswith("unreadable database")

    def test_prune_drops_stale_schema_entries(self, tmp_path, monkeypatch):
        pairs = make_pairs(3)
        stale = ResultCache(tmp_path)
        monkeypatch.setattr(
            cache_mod, "CACHE_SCHEMA_VERSION", cache_mod.CACHE_SCHEMA_VERSION - 1
        )
        stale.put_many(pairs[:2])  # written under the previous schema
        monkeypatch.undo()
        current = ResultCache(tmp_path)
        current.put_many(pairs[2:])
        assert current.verify() == []  # stale rows are consistent, just stale
        assert current.prune() == 2
        got = ResultCache(tmp_path).get_many([s for s, _ in pairs])
        assert got == [None, None, pairs[2][1]]
        assert current.prune() == 0  # idempotent


class TestForeignFiles:
    def test_len_and_clear_ignore_files_the_cache_did_not_write(self, tmp_path):
        """Only the database belongs to the cache: a store written before
        it (``index.json`` + ``segments/``) and any other file are
        neither counted nor deleted, so an old cache is simply cold."""
        (tmp_path / "segments").mkdir()
        (tmp_path / "segments" / "seg-00000.pack").write_bytes(b"{}")
        (tmp_path / "index.json").write_text('{"layout": 1}', encoding="utf-8")
        cache = ResultCache(tmp_path)
        pairs = make_pairs(2)
        assert cache.get(pairs[0][0]) is None
        cache.put_many(pairs)
        notes = tmp_path / "ab" / "notes.json"
        notes.parent.mkdir()
        notes.write_text("{}", encoding="utf-8")
        assert len(cache) == 2
        assert cache.clear() == 2
        assert notes.read_text(encoding="utf-8") == "{}"
        assert (tmp_path / "index.json").is_file()
        assert (tmp_path / "segments" / "seg-00000.pack").is_file()
        assert not (tmp_path / DB).exists()
        assert len(ResultCache(tmp_path)) == 0


class TestCorruptionDedupe:
    """Repeated identical corruption warnings collapse within one batch:
    N undecodable rows warn once plus a summary line, not N times."""

    def torn_store(self, tmp_path, count):
        pairs = make_pairs(count)
        ResultCache(tmp_path).put_many(pairs)
        sql(tmp_path, "UPDATE results SET payload = 'x'")
        return pairs, ResultCache(tmp_path)

    def test_torn_batch_warns_once_plus_summary(self, tmp_path):
        pairs, cache = self.torn_store(tmp_path, 6)
        got, messages = caught_messages(lambda: cache.get_many([s for s, _ in pairs]))
        assert got == [None] * 6
        assert len(messages) == 2
        assert "undecodable payload" in messages[0]
        assert "5 similar corruption warning(s) suppressed" in messages[1]

    def test_dedup_resets_between_batches(self, tmp_path):
        pairs, cache = self.torn_store(tmp_path, 2)
        for _ in range(2):  # each batch re-warns: dedup is per batch
            got, messages = caught_messages(lambda: cache.get_many([s for s, _ in pairs]))
            assert got == [None, None]
            assert len(messages) == 2
            assert "undecodable payload" in messages[0]
            assert "1 similar corruption warning(s) suppressed" in messages[1]

    def test_distinct_corruption_modes_each_warn(self, tmp_path):
        pairs = make_pairs(3)
        ResultCache(tmp_path).put_many(pairs)
        set_payload(tmp_path, pairs[0][0], "x")
        set_payload(tmp_path, pairs[1][0], "x")
        sql(tmp_path, "UPDATE results SET schema = 0 WHERE key = ?", cache_key(pairs[2][0]))
        got, messages = caught_messages(
            lambda: ResultCache(tmp_path).get_many([s for s, _ in pairs])
        )
        assert got == [None] * 3
        assert sum("undecodable payload" in m for m in messages) == 1
        assert sum("another spec" in m for m in messages) == 1
        assert "1 similar corruption warning(s) suppressed" in messages[-1]
