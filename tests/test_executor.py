"""Execution backends: serial/parallel determinism, the disk result
cache, sweep-cell enumeration, and eager sweep-axis validation."""

import sqlite3

import pytest

from repro.analysis import (
    CachingExecutor,
    ParallelExecutor,
    ResultCache,
    RunRecord,
    RunSpec,
    SerialExecutor,
    SweepSpec,
    cache_key,
    make_executor,
    run_single,
    run_sweep,
)
from repro.errors import AnalysisError
from repro.graphs import gnp_connected
from repro.mdst import run_mdst
from repro.sim import UniformDelay
from repro.spanning import build_spanning_tree

SPEC = SweepSpec(
    families=("gnp_sparse",),
    sizes=(10, 12),
    seeds=(0, 1),
    delays=("uniform",),
)


class TestDeterminism:
    def test_parallel_matches_serial(self):
        cells = SPEC.cells()
        serial = SerialExecutor().run(cells)
        parallel = ParallelExecutor(jobs=4).run(cells)
        assert parallel == serial

    def test_run_sweep_jobs_matches_serial(self):
        assert run_sweep(SPEC, jobs=4) == run_sweep(SPEC)

    def test_random_delay_reports_reproduce(self):
        graph = gnp_connected(12, 0.3, seed=5)
        tree = build_spanning_tree(graph, method="greedy_hub").tree
        reports = [
            run_mdst(graph, tree, seed=7, delay=UniformDelay()).report
            for _ in range(2)
        ]
        assert reports[0] == reports[1]


class TestCells:
    def test_cell_grid_order_and_count(self):
        spec = SweepSpec(
            families=("complete", "ring"),
            sizes=(8,),
            seeds=(0, 1),
            modes=("concurrent", "single"),
            max_rounds=3,
        )
        cells = spec.cells()
        assert len(cells) == 8
        assert cells[0] == RunSpec(
            family="complete", n=8, seed=0, mode="concurrent", max_rounds=3
        )
        # seeds vary fastest, families slowest (the historical sweep order)
        assert [c.seed for c in cells[:2]] == [0, 1]
        assert cells[-1].family == "ring"

    def test_runspec_json_roundtrip(self):
        spec = RunSpec(family="ring", n=9, seed=3, delay="perlink", max_rounds=2)
        assert RunSpec.from_json_dict(spec.to_json_dict()) == spec


class TestValidation:
    def test_unknown_family_fails_fast(self):
        with pytest.raises(AnalysisError, match="gnp_sparse"):
            SweepSpec(families=("nope",))

    def test_unknown_mode_fails_fast(self):
        with pytest.raises(AnalysisError, match="concurrent"):
            SweepSpec(modes=("turbo",))

    def test_unknown_delay_fails_fast(self):
        with pytest.raises(AnalysisError, match="uniform"):
            SweepSpec(delays=("warp",))

    def test_unknown_initial_method_fails_fast(self):
        with pytest.raises(AnalysisError, match="echo"):
            SweepSpec(initial_methods=("magic",))

    def test_bad_sizes_fail_fast(self):
        with pytest.raises(AnalysisError, match="sizes"):
            SweepSpec(sizes=(16, 0))

    def test_bad_jobs_rejected(self):
        with pytest.raises(AnalysisError):
            ParallelExecutor(jobs=0)


class TestMaxRoundsRecorded:
    def test_run_single_records_max_rounds(self):
        rec = run_single("gnp_sparse", 12, seed=0, max_rounds=2)
        assert rec.max_rounds == 2
        assert rec.rounds <= 2

    def test_sweep_records_carry_max_rounds(self):
        spec = SweepSpec(families=("complete",), sizes=(8,), seeds=(0,), max_rounds=1)
        (rec,) = run_sweep(spec)
        assert rec.max_rounds == 1

    def test_legacy_record_dict_still_loads(self):
        rec = run_single("gnp_sparse", 10, seed=0)
        data = rec.to_json_dict()
        del data["max_rounds"]  # record saved before the field existed
        assert RunRecord.from_json_dict(data).max_rounds is None


class TestResultCache:
    def test_second_sweep_is_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = run_sweep(SPEC, cache=cache)
        assert len(cache) == len(SPEC.cells())
        assert cache.hits == 0

        # a poisoned inner executor proves no cell is re-run
        class Exploding:
            def run(self, cells):
                raise AssertionError(f"cache missed {len(cells)} cells")

        second = CachingExecutor(Exploding(), cache).run(SPEC.cells())
        assert second == first
        assert cache.hits == len(SPEC.cells())

    def test_cache_keys_are_stable_and_distinct(self):
        a = RunSpec(family="ring", n=8, seed=0)
        assert cache_key(a) == cache_key(RunSpec(family="ring", n=8, seed=0))
        assert cache_key(a) != cache_key(RunSpec(family="ring", n=8, seed=1))

    def test_corrupt_entry_is_a_miss_and_heals(self, tmp_path):
        spec = RunSpec(family="gnp_sparse", n=10, seed=0)
        record = run_single("gnp_sparse", 10, seed=0)
        ResultCache(tmp_path).put(spec, record)
        con = sqlite3.connect(tmp_path / "results.sqlite3")
        with con:
            con.execute("UPDATE results SET payload = '{ not json'")
        con.close()
        cache = ResultCache(tmp_path)  # cold memory tier: the disk answers
        with pytest.warns(RuntimeWarning, match="treated as a miss"):
            assert cache.get(spec) is None
        cache.put(spec, record)
        assert ResultCache(tmp_path).get(spec) == record

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(RunSpec(family="ring", n=8, seed=0), run_single("ring", 8, seed=0))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_make_executor_shapes(self, tmp_path):
        assert isinstance(make_executor(), SerialExecutor)
        assert isinstance(make_executor(jobs=4), ParallelExecutor)
        combined = make_executor(jobs=4, cache=tmp_path)
        assert isinstance(combined, CachingExecutor)
        assert isinstance(combined.inner, ParallelExecutor)


class TestGroupWireCodec:
    """The compact group encoding that crosses the worker boundary."""

    def test_group_round_trip(self):
        from repro.analysis.executor import _decode_group, _encode_group

        cells = [RunSpec(family="ring", n=8, seed=s, delay="perlink") for s in (3, 7)]
        payload = _encode_group(cells)
        assert payload["seeds"] == [3, 7]
        assert "seed" not in payload["spec"]  # template carried once
        assert _decode_group(payload) == cells

    def test_record_rows_round_trip(self):
        from repro.analysis.executor import _decode_records, _encode_records

        records = [run_single("ring", 8, seed=s) for s in (0, 1)]
        assert _decode_records(_encode_records(records)) == records

    def test_worker_entry_matches_serial(self):
        from repro.analysis.executor import (
            _decode_records,
            _encode_group,
            _run_group_json,
            execute_cell,
        )

        cells = [RunSpec(family="gnp_sparse", n=12, seed=s) for s in range(3)]
        result = _run_group_json(execute_cell, _encode_group(cells))
        assert _decode_records(result["rows"]) == SerialExecutor().run(cells)
        # the worker ships its telemetry home alongside the rows
        assert result["obs"]["counters"]

    def test_unbatched_serial_matches_batched(self):
        cells = SPEC.cells()
        assert SerialExecutor().run(cells) == SerialExecutor(batch=False).run(cells)


class TestPersistentPool:
    def test_pool_is_reused_across_runs_and_closed(self):
        cells = SPEC.cells()
        with ParallelExecutor(jobs=2, persistent=True) as executor:
            first = executor.run(cells)
            pool = executor._pool
            assert pool is not None
            assert executor.run(cells) == first
            assert executor._pool is pool  # same pool, no respawn
        assert executor._pool is None  # context exit closed it

    def test_close_is_idempotent_and_lazy(self):
        executor = ParallelExecutor(jobs=2, persistent=True)
        assert executor._pool is None  # nothing spawned until needed
        executor.close()
        executor.close()

    def test_transient_mode_leaves_no_pool_behind(self):
        executor = ParallelExecutor(jobs=2)
        executor.run(SPEC.cells())
        assert executor._pool is None

    def test_make_executor_persistent_flag(self, tmp_path):
        executor = make_executor(jobs=2, persistent=True)
        assert executor.persistent
        combined = make_executor(jobs=2, cache=tmp_path, persistent=True)
        assert combined.inner.persistent


class TestBatchedCachingExecutor:
    def test_only_misses_reach_the_inner_executor_as_one_batch(self, tmp_path):
        cells = SPEC.cells()
        cache = ResultCache(tmp_path)
        run_sweep(SweepSpec(families=("gnp_sparse",), sizes=(10,),
                            seeds=(0, 1), delays=("uniform",)), cache=cache)

        batches = []

        class Recording:
            def run(self, missed):
                batches.append(list(missed))
                return SerialExecutor().run(missed)

        result = CachingExecutor(Recording(), cache).run(cells)
        assert result == run_sweep(SPEC)
        (batch,) = batches  # exactly one inner dispatch for all misses
        assert batch == [c for c in cells if c.n == 12]

    def test_fully_warm_batch_never_dispatches(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_sweep(SPEC, cache=cache)

        class Exploding:
            def run(self, cells):
                raise AssertionError("dispatched on a warm cache")

        # a fresh cache object proves the disk tier alone answers
        warm = CachingExecutor(Exploding(), ResultCache(tmp_path))
        assert warm.run(SPEC.cells()) == first

    def test_half_warm_group_results_stay_byte_identical(self, tmp_path):
        cells = SPEC.cells()
        reference = SerialExecutor().run(cells)
        cache = ResultCache(tmp_path)
        cache.put_many([(cells[0], reference[0]), (cells[3], reference[3])])
        combined = CachingExecutor(ParallelExecutor(jobs=2), cache)
        assert combined.run(cells) == reference


class TestCacheSchemaVersioning:
    """Entries written under a stale CACHE_SCHEMA_VERSION must be ignored
    (treated as misses), never served into tables (PR 1 follow-up)."""

    def test_stale_schema_entry_is_ignored(self, tmp_path, monkeypatch):
        from repro.analysis import cache as cache_mod

        spec = RunSpec(family="ring", n=8, seed=0)
        record = run_single("ring", 8, seed=0)

        store = ResultCache(tmp_path)
        current = cache_mod.CACHE_SCHEMA_VERSION
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", current - 1)
        store.put(spec, record)  # written under the previous schema
        assert store.get(spec) == record  # visible while schema is old

        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", current)
        assert store.get(spec) is None  # stale entry: a miss, not a hit
        store.put(spec, record)
        assert store.get(spec) == record  # re-populated under new schema

    def test_schema_version_changes_cache_key(self, monkeypatch):
        from repro.analysis import cache as cache_mod

        spec = RunSpec(family="ring", n=8, seed=0)
        key_now = cache_key(spec)
        monkeypatch.setattr(
            cache_mod, "CACHE_SCHEMA_VERSION", cache_mod.CACHE_SCHEMA_VERSION + 1
        )
        assert cache_key(spec) != key_now

    @staticmethod
    def _old_row_is_a_miss(tmp_path, version, drop=()):
        """Store one record as a raw row of schema *version* (without
        the fields in *drop*): a fresh cache misses it, warning-free."""
        import json
        import warnings

        from repro.analysis import cache as cache_mod

        spec = RunSpec(family="ring", n=8, seed=0)
        record = run_single("ring", 8, seed=0)
        store = ResultCache(tmp_path)
        store.put(spec, record)
        old_record = record.to_json_dict()
        for field in drop:
            del old_record[field]
        payload = json.dumps({"spec": spec.to_json_dict(), "record": old_record})
        with sqlite3.connect(store.path) as db:
            db.execute("DELETE FROM results")
            db.execute(
                "INSERT INTO results VALUES (?, ?, ?, ?)",
                (cache_mod._key(spec.to_json_dict(), "", version), "", version, payload),
            )
        db.close()
        fresh = ResultCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fresh.get(spec) is None
        assert (fresh.hits, fresh.misses) == (0, 1)

    def test_schema_7_entry_is_a_miss_not_an_error(self, tmp_path):
        """A v7 row, written before records carried the judge's ``lb``
        and ``fr_improvable``, is never served with their defaults."""
        self._old_row_is_a_miss(tmp_path, 7, drop=("lb", "fr_improvable"))

    def test_schema_8_entry_is_a_miss_not_an_error(self, tmp_path):
        """A v8 row carries the witness/cut-vertex ``lb``, which the set
        bound can raise; it is never served."""
        self._old_row_is_a_miss(tmp_path, 8)

    def test_schema_version_is_bumped_past_pr1(self):
        from repro.analysis.cache import CACHE_SCHEMA_VERSION

        assert CACHE_SCHEMA_VERSION >= 2

    def test_schema_version_is_bumped_for_the_fault_axis(self):
        """v3: RunSpec/RunRecord gained the ``fault`` axis + ``outcome``
        field — v2 entries would deserialize fine but must invalidate
        rather than alias the fault-free cell (stale-schema regression
        for the scenario/campaign PR)."""
        from repro.analysis.cache import CACHE_SCHEMA_VERSION

        assert CACHE_SCHEMA_VERSION >= 3

    def test_schema_version_is_bumped_for_the_scheduler_axis(self):
        """v4: RunSpec/RunRecord gained the ``scheduler`` axis
        (adversarial schedule policies, exploration PR) — a v3 entry has
        no scheduler field and would alias the time-scheduled cell."""
        from repro.analysis.cache import CACHE_SCHEMA_VERSION

        assert CACHE_SCHEMA_VERSION >= 4

    def test_schema_version_is_bumped_for_the_events_metric(self):
        """v5: RunRecord gained the ``events`` work metric (perf
        trajectory PR) — a v4 entry deserializes with events=0 and would
        silently zero the benchmark gate's primary work metric."""
        from repro.analysis.cache import CACHE_SCHEMA_VERSION

        assert CACHE_SCHEMA_VERSION >= 5

    def test_schema_version_is_bumped_for_the_churn_axis(self):
        """v6: RunSpec/RunRecord gained the ``churn`` axis and scheduler
        spec strings started carrying replay prefixes (fuzzing PR) — a
        v5 entry has no churn field and would alias the churn-free
        cell."""
        from repro.analysis.cache import CACHE_SCHEMA_VERSION

        assert CACHE_SCHEMA_VERSION >= 6

    def test_records_carry_the_events_work_metric(self):
        record = run_single("ring", 8, seed=0)
        assert record.events > 0
        assert record.events >= record.messages  # every delivery is an event

    def test_fault_distinguishes_cache_keys(self):
        a = RunSpec(family="ring", n=8, seed=0, fault="none")
        b = RunSpec(family="ring", n=8, seed=0, fault="crash_one")
        assert cache_key(a) != cache_key(b)

    def test_scheduler_distinguishes_cache_keys(self):
        a = RunSpec(family="ring", n=8, seed=0, scheduler="none")
        b = RunSpec(family="ring", n=8, seed=0, scheduler="lifo")
        assert cache_key(a) != cache_key(b)

    def test_churn_distinguishes_cache_keys(self):
        a = RunSpec(family="ring", n=8, seed=0, churn="none")
        b = RunSpec(family="ring", n=8, seed=0, churn="restart_one")
        assert cache_key(a) != cache_key(b)

    def test_replay_prefix_distinguishes_cache_keys(self):
        """The latent aliasing gap the fuzzing PR closes: two runs of
        the same instance under different replay prefixes are different
        schedules, so their records must never share a cache entry. The
        prefix rides in the scheduler spec string, which the key hashes
        verbatim — sound only because ``scheduler_from_name`` rejects
        non-canonical spellings (one schedule = one spec string)."""
        base = RunSpec(family="ring", n=8, seed=0, scheduler="replay:lifo")
        pref = RunSpec(family="ring", n=8, seed=0, scheduler="replay:lifo:3.1")
        other = RunSpec(family="ring", n=8, seed=0, scheduler="replay:lifo:3.2")
        keys = {cache_key(base), cache_key(pref), cache_key(other)}
        assert len(keys) == 3

    def test_non_canonical_replay_specs_cannot_reach_the_cache(self):
        """A second spelling of the same prefix would alias one schedule
        to two cache keys; the parser is the choke point that prevents
        it."""
        from repro.sim.scheduler import scheduler_from_name

        with pytest.raises(ValueError, match="bad replay choice"):
            scheduler_from_name("replay:lifo:03.1")  # leading zero
        with pytest.raises(ValueError, match="non-canonical"):
            scheduler_from_name("replay:random")  # spelled 'replay'

    def test_salt_distinguishes_cache_keys_and_stores(self, tmp_path):
        """A salted cache (the exploration probe's) must never serve or
        poison the unsalted store for the same spec."""
        spec = RunSpec(family="ring", n=8, seed=0)
        assert cache_key(spec) != cache_key(spec, salt="exploration-probe:1")

        record = run_single("ring", 8, seed=0)
        plain = ResultCache(tmp_path)
        salted = ResultCache(tmp_path, salt="exploration-probe:1")
        salted.put(spec, record)
        assert plain.get(spec) is None
        assert salted.get(spec) == record

    def test_algorithm_distinguishes_cache_keys(self):
        a = RunSpec(family="ring", n=8, seed=0, algorithm="blin_butelle")
        b = RunSpec(family="ring", n=8, seed=0, algorithm="fr_local")
        assert cache_key(a) != cache_key(b)

    def test_legacy_record_without_algorithm_loads_with_default(self):
        rec = run_single("gnp_sparse", 10, seed=0)
        data = rec.to_json_dict()
        del data["algorithm"]  # record saved before the registry existed
        assert RunRecord.from_json_dict(data).algorithm == "blin_butelle"

    def test_legacy_record_without_fault_loads_with_default(self):
        rec = run_single("gnp_sparse", 10, seed=0)
        data = rec.to_json_dict()
        del data["fault"]  # record saved before the fault axis existed
        del data["outcome"]
        loaded = RunRecord.from_json_dict(data)
        assert loaded.fault == "none" and loaded.ok

    def test_legacy_record_without_scheduler_loads_with_default(self):
        rec = run_single("gnp_sparse", 10, seed=0)
        data = rec.to_json_dict()
        del data["scheduler"]  # record saved before the scheduler axis
        assert RunRecord.from_json_dict(data).scheduler == "none"

    def test_legacy_record_without_churn_loads_with_default(self):
        rec = run_single("gnp_sparse", 10, seed=0)
        data = rec.to_json_dict()
        del data["churn"]  # record saved before the churn axis
        assert RunRecord.from_json_dict(data).churn == "none"
