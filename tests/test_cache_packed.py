"""Packed two-tier ResultCache: segment/index layout, batched lookups,
the LRU memory tier, corruption robustness (every mode is a warned miss,
never an exception), crash-safety ordering, and leaving alone the files
under the root that the cache did not write."""

import json

import pytest

from repro.analysis import ResultCache, RunSpec, cache_key, run_single


def make_pairs(count, family="ring", n=8):
    """(spec, record) pairs for distinct seeds — records are real runs
    of the first seed re-stamped? No: each seed is actually run, so the
    cache round-trips genuine records."""
    pairs = []
    for seed in range(count):
        spec = RunSpec(family=family, n=n, seed=seed)
        pairs.append((spec, run_single(family, n, seed=seed)))
    return pairs


class TestPackedLayout:
    def test_put_many_writes_one_segment_and_an_index(self, tmp_path):
        cache = ResultCache(tmp_path)
        pairs = make_pairs(4)
        assert cache.put_many(pairs) == 4
        assert (tmp_path / "index.json").is_file()
        assert len(list((tmp_path / "segments").glob("seg-*.pack"))) == 1
        assert len(cache) == 4

    def test_get_many_preserves_order_and_marks_misses_in_place(self, tmp_path):
        cache = ResultCache(tmp_path)
        pairs = make_pairs(3)
        cache.put_many(pairs[:2])
        fresh = ResultCache(tmp_path)  # cold memory tier: disk answers
        specs = [pairs[2][0], pairs[0][0], pairs[1][0]]
        got = fresh.get_many(specs)
        assert got == [None, pairs[0][1], pairs[1][1]]
        assert fresh.hits == 2 and fresh.misses == 1

    def test_segments_roll_over_at_the_byte_threshold(self, tmp_path):
        cache = ResultCache(tmp_path, segment_bytes=1)  # every batch rolls
        for spec, record in make_pairs(3):
            cache.put(spec, record)
        assert len(list((tmp_path / "segments").glob("seg-*.pack"))) == 3
        assert all(r is not None for r in ResultCache(tmp_path).get_many(
            [spec for spec, _ in make_pairs(3)]
        ))

    def test_index_reloaded_when_another_writer_updates_it(self, tmp_path):
        reader = ResultCache(tmp_path)
        (spec, record), *_ = pairs = make_pairs(2)
        assert reader.get(spec) is None  # index loaded (empty) and cached
        writer = ResultCache(tmp_path)
        writer.put_many(pairs)
        assert reader.get(spec) == record  # stat stamp changed: re-read


class TestMemoryTier:
    def test_lru_never_exceeds_its_budget(self, tmp_path):
        cache = ResultCache(tmp_path, memory_entries=2)
        pairs = make_pairs(5)
        cache.put_many(pairs)
        assert len(cache._memory) <= 2
        assert all(r is not None for r in cache.get_many([s for s, _ in pairs]))
        assert len(cache._memory) <= 2

    def test_zero_budget_disables_the_tier(self, tmp_path):
        cache = ResultCache(tmp_path, memory_entries=0)
        pairs = make_pairs(2)
        cache.put_many(pairs)
        assert cache.get(pairs[0][0]) == pairs[0][1]  # served from disk
        assert len(cache._memory) == 0

    def test_memory_tier_answers_without_the_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        (spec, record), *_ = make_pairs(1)
        cache.put(spec, record)
        (tmp_path / "index.json").unlink()  # disk gone, memory still warm
        for seg in (tmp_path / "segments").glob("seg-*.pack"):
            seg.unlink()
        assert cache.get(spec) == record


class TestCorruptionIsAMiss:
    """Every corruption mode degrades to a warned miss — a damaged cache
    must never take a sweep down, and a re-put must heal it."""

    def make_cold(self, tmp_path, count=2):
        pairs = make_pairs(count)
        ResultCache(tmp_path).put_many(pairs)
        return pairs, ResultCache(tmp_path, memory_entries=0)

    def test_truncated_segment(self, tmp_path):
        pairs, cache = self.make_cold(tmp_path)
        (segment,) = (tmp_path / "segments").glob("seg-*.pack")
        blob = segment.read_bytes()
        segment.write_bytes(blob[: len(blob) // 2])  # tail entry cut off
        with pytest.warns(RuntimeWarning, match="treated as a miss"):
            got = cache.get_many([s for s, _ in pairs])
        assert None in got

    def test_missing_segment(self, tmp_path):
        pairs, cache = self.make_cold(tmp_path)
        (segment,) = (tmp_path / "segments").glob("seg-*.pack")
        segment.unlink()
        with pytest.warns(RuntimeWarning, match="missing segment"):
            assert cache.get_many([s for s, _ in pairs]) == [None, None]

    def test_undecodable_entry(self, tmp_path):
        pairs, cache = self.make_cold(tmp_path, count=1)
        (segment,) = (tmp_path / "segments").glob("seg-*.pack")
        segment.write_bytes(b"x" * segment.stat().st_size)  # same size, garbage
        with pytest.warns(RuntimeWarning, match="undecodable entry"):
            assert cache.get(pairs[0][0]) is None

    def test_unreadable_index(self, tmp_path):
        pairs, cache = self.make_cold(tmp_path)
        (tmp_path / "index.json").write_text("{ not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="unreadable index"):
            assert cache.get_many([s for s, _ in pairs]) == [None, None]

    def test_missing_index_is_a_plain_miss(self, tmp_path):
        # indistinguishable from a fresh cache: a miss, but not a warning
        pairs, cache = self.make_cold(tmp_path)
        (tmp_path / "index.json").unlink()
        assert cache.get(pairs[0][0]) is None

    def test_malformed_index_entry(self, tmp_path):
        pairs, cache = self.make_cold(tmp_path, count=1)
        index_path = tmp_path / "index.json"
        data = json.loads(index_path.read_text(encoding="utf-8"))
        (key,) = data["entries"]
        data["entries"][key] = ["seg-00000.pack", "zero", None]
        index_path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="malformed index entry"):
            assert cache.get(pairs[0][0]) is None

    def test_corruption_heals_on_re_put(self, tmp_path):
        pairs, cache = self.make_cold(tmp_path, count=1)
        (segment,) = (tmp_path / "segments").glob("seg-*.pack")
        segment.write_text("{ not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            assert cache.get(pairs[0][0]) is None
        cache.put_many(pairs)
        assert ResultCache(tmp_path).get(pairs[0][0]) == pairs[0][1]


class TestCrashSafety:
    def test_orphan_segment_bytes_never_poison_lookups(self, tmp_path):
        """A crash between segment append and index write leaves orphan
        bytes; they are invisible (unreferenced) and the next batch
        appends cleanly after them."""
        cache = ResultCache(tmp_path)
        pairs = make_pairs(3)
        cache.put_many(pairs[:1])
        (segment,) = (tmp_path / "segments").glob("seg-*.pack")
        with open(segment, "ab") as fh:
            fh.write(b'{"spec": "torn batch, index never written')
        fresh = ResultCache(tmp_path, memory_entries=0)
        assert fresh.get(pairs[0][0]) == pairs[0][1]
        assert fresh.get(pairs[1][0]) is None  # orphan is not served
        fresh.put_many(pairs[1:])
        assert fresh.get_many([s for s, _ in pairs]) == [r for _, r in pairs]

    def test_index_entries_always_point_inside_their_segment(self, tmp_path):
        cache = ResultCache(tmp_path, segment_bytes=256)
        cache.put_many(make_pairs(6))
        data = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
        for segment, offset, length, _schema in data["entries"].values():
            size = (tmp_path / "segments" / segment).stat().st_size
            assert offset + length <= size


class TestMaintenance:
    def test_stats_counts_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_many(make_pairs(2))
        s = cache.stats()
        assert s["entries"] == 2
        assert s["segments"] == 1
        assert s["bytes"] > 0
        assert s["schema"] >= 5

    def test_verify_clean_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_many(make_pairs(3))
        assert cache.verify() == []

    def test_verify_reports_truncation_and_missing_segments(self, tmp_path):
        cache = ResultCache(tmp_path, segment_bytes=1)
        cache.put_many(make_pairs(1))
        cache.put_many(make_pairs(2)[1:])
        seg0, seg1 = sorted((tmp_path / "segments").glob("seg-*.pack"))
        seg0.write_bytes(seg0.read_bytes()[:10])
        seg1.unlink()
        problems = ResultCache(tmp_path).verify()
        assert len(problems) == 2
        assert any("truncated segment" in p for p in problems)
        assert any("is missing" in p for p in problems)

    def test_prune_drops_stale_schema_entries(self, tmp_path, monkeypatch):
        from repro.analysis import cache as cache_mod

        pairs = make_pairs(3)
        stale = ResultCache(tmp_path)
        monkeypatch.setattr(
            cache_mod, "CACHE_SCHEMA_VERSION", cache_mod.CACHE_SCHEMA_VERSION - 1
        )
        stale.put_many(pairs[:2])  # written under the previous schema
        monkeypatch.undo()
        current = ResultCache(tmp_path)
        current.put_many(pairs[2:])
        assert current.prune() == 2
        got = ResultCache(tmp_path).get_many([s for s, _ in pairs])
        assert got == [None, None, pairs[2][1]]
        assert current.prune() == 0  # idempotent


class TestForeignFiles:
    def test_len_and_clear_ignore_files_the_cache_did_not_write(self, tmp_path):
        """Only the index and the segments belong to the cache: a file in
        the old ``<2-hex>/<key>.json`` shape is neither counted nor
        deleted."""
        cache = ResultCache(tmp_path)
        pairs = make_pairs(2)
        cache.put_many(pairs)
        notes = tmp_path / "ab" / "notes.json"
        notes.parent.mkdir()
        notes.write_text("{}", encoding="utf-8")
        assert len(cache) == 2
        assert cache.clear() == 2
        assert notes.read_text(encoding="utf-8") == "{}"
        assert len(ResultCache(tmp_path)) == 0


class TestCorruptionDedupe:
    """Repeated identical corruption warnings collapse within one batch:
    a torn N-entry segment warns once plus a summary line, not N times."""

    def torn_store(self, tmp_path, count):
        pairs = make_pairs(count)
        ResultCache(tmp_path, memory_entries=0).put_many(pairs)
        (segment,) = (tmp_path / "segments").glob("seg-*.pack")
        segment.write_bytes(b"x" * segment.stat().st_size)
        return pairs, ResultCache(tmp_path, memory_entries=0)

    def test_torn_batch_warns_once_plus_summary(self, tmp_path):
        import warnings

        pairs, cache = self.torn_store(tmp_path, 6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cache.get_many([s for s, _ in pairs]) == [None] * 6
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert "undecodable entry" in messages[0]
        assert "5 similar corruption warning(s) suppressed" in messages[1]

    def test_dedup_resets_between_batches(self, tmp_path):
        import warnings

        pairs, cache = self.torn_store(tmp_path, 2)
        for _ in range(2):  # each batch re-warns: dedup is per batch
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cache.get_many([s for s, _ in pairs]) == [None, None]
            messages = [str(w.message) for w in caught]
            assert len(messages) == 2
            assert "undecodable entry" in messages[0]
            assert "1 similar corruption warning(s) suppressed" in messages[1]

    def test_distinct_corruption_modes_each_warn(self, tmp_path):
        import warnings

        pairs, cache = self.torn_store(tmp_path, 2)
        extra_spec = RunSpec(family="ring", n=8, seed=99)
        index_path = tmp_path / "index.json"
        data = json.loads(index_path.read_text(encoding="utf-8"))
        data["entries"][cache_key(extra_spec)] = ["seg-00000.pack", "zero", None]
        index_path.write_text(json.dumps(data), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = cache.get_many([s for s, _ in pairs] + [extra_spec])
        assert got == [None] * 3
        messages = [str(w.message) for w in caught]
        assert any("malformed index entry" in m for m in messages)
        assert any("undecodable entry" in m for m in messages)
