"""The multi-seed group runner: grouped and per-cell execution must be
byte-identical — across algorithms, scheduler policies and fault plans.
A record's bytes never depend on which execution path produced it."""

import dataclasses

import pytest

from repro.algorithms import ALGORITHMS
from repro.analysis.batch import (
    INSTANCE_MEMO_SIZE,
    CellTemplate,
    group_cells,
    instance,
    maybe_run_batched,
    run_cells,
)
from repro.analysis.executor import (
    CachingExecutor,
    RunSpec,
    SerialExecutor,
    execute_cell,
)
from repro.analysis.harness import SweepSpec, run_sweep
from repro.errors import AnalysisError, ReproError, UnknownNameError
from repro.exploration import artifact_bytes, corpus_paths, explore, load_artifact
from repro.exploration.probe import probe_cell, probe_cells
from repro.graphs.generators import make_family
from repro.spanning.provider import build_spanning_tree
from tests.test_exploration import CORPUS_DIR


def record_bytes(records):
    return [r.to_json_dict() for r in records]


class TestGrouping:
    def test_seed_varying_cells_group_globally(self):
        a = [RunSpec(family="gnp_sparse", n=8, seed=s) for s in (0, 1, 2)]
        b = [RunSpec(family="gnp_sparse", n=12, seed=s) for s in (0, 1)]
        interleaved = [a[0], b[0], a[1], b[1], a[2]]
        groups = group_cells(interleaved)
        assert groups == [[0, 2, 4], [1, 3]]

    def test_singletons_are_their_own_group(self):
        cells = [
            RunSpec(family="gnp_sparse", n=8, seed=0),
            RunSpec(family="gnp_sparse", n=8, seed=0, scheduler="lifo"),
        ]
        assert group_cells(cells) == [[0], [1]]

    def test_run_cells_rejects_mixed_groups(self):
        cells = [
            RunSpec(family="gnp_sparse", n=8, seed=0),
            RunSpec(family="gnp_sparse", n=12, seed=1),
        ]
        with pytest.raises(AnalysisError, match="differ only in seed"):
            run_cells(cells)

    def test_run_cells_empty_is_empty(self):
        assert run_cells([]) == []


class TestByteIdentity:
    """Batched records == per-cell records, byte for byte."""

    @pytest.mark.parametrize("algorithm", ["blin_butelle", "fr_local"])
    @pytest.mark.parametrize("scheduler", ["none", "lifo", "random"])
    def test_algorithm_x_scheduler(self, algorithm, scheduler):
        cells = [
            RunSpec(
                family="gnp_sparse",
                n=10,
                seed=s,
                algorithm=algorithm,
                scheduler=scheduler,
            )
            for s in range(4)
        ]
        batched = run_cells(cells)
        serial = [execute_cell(c) for c in cells]
        assert record_bytes(batched) == record_bytes(serial)

    @pytest.mark.parametrize("fault", ["crash_one", "lossy_light", "crash_storm"])
    def test_fault_plans_including_stalls(self, fault):
        cells = [
            RunSpec(family="gnp_sparse", n=10, seed=s, fault=fault)
            for s in range(4)
        ]
        batched = run_cells(cells)
        serial = [execute_cell(c) for c in cells]
        assert record_bytes(batched) == record_bytes(serial)

    def test_trivial_instances_batch(self):
        cells = [RunSpec(family="gnp_sparse", n=2, seed=s) for s in range(3)]
        batched = run_cells(cells)
        serial = [execute_cell(c) for c in cells]
        assert record_bytes(batched) == record_bytes(serial)

    def test_random_delay_cells_batch(self):
        cells = [
            RunSpec(family="geometric", n=10, seed=s, delay="exponential")
            for s in range(3)
        ]
        batched = run_cells(cells)
        serial = [execute_cell(c) for c in cells]
        assert record_bytes(batched) == record_bytes(serial)


class TestExecutorIntegration:
    GRID = SweepSpec(
        families=("gnp_sparse",),
        sizes=(8, 12),
        seeds=(0, 1, 2),
        algorithms=("blin_butelle", "fr_local"),
        schedulers=("none", "lifo"),
        faults=("none", "crash_one"),
    )

    def test_serial_executor_batched_vs_plain(self):
        cells = self.GRID.cells()
        batched = SerialExecutor().run(cells)
        plain = SerialExecutor(batch=False).run(cells)
        assert record_bytes(batched) == record_bytes(plain)

    def test_run_sweep_is_batched_by_default_and_unchanged(self):
        spec = SweepSpec(sizes=(8,), seeds=(0, 1, 2))
        assert record_bytes(run_sweep(spec)) == record_bytes(
            SerialExecutor(batch=False).run(spec.cells())
        )

    def test_cache_entries_interchangeable(self, tmp_path):
        """A cache warmed by the batched path must serve the per-cell
        path verbatim, and vice versa (same schema, same bytes)."""
        cells = [RunSpec(family="gnp_sparse", n=8, seed=s) for s in range(3)]
        warm_batched = CachingExecutor(SerialExecutor(), tmp_path / "c1")
        first = warm_batched.run(cells)
        served = CachingExecutor(SerialExecutor(batch=False), tmp_path / "c1").run(
            cells
        )
        assert record_bytes(first) == record_bytes(served)

        warm_plain = CachingExecutor(SerialExecutor(batch=False), tmp_path / "c2")
        first = warm_plain.run(cells)
        served = CachingExecutor(SerialExecutor(), tmp_path / "c2").run(cells)
        assert record_bytes(first) == record_bytes(served)

    def test_opt_out_runner_stays_per_cell(self):
        calls = []

        def runner(spec):
            calls.append(spec.seed)
            return execute_cell(spec)

        cells = [RunSpec(family="gnp_sparse", n=8, seed=s) for s in range(3)]
        records = maybe_run_batched(runner, cells)
        assert calls == [0, 1, 2]
        assert record_bytes(records) == record_bytes(
            [execute_cell(c) for c in cells]
        )


class TestProbeBatching:
    def test_probe_cells_matches_probe_cell_on_clean_groups(self):
        cells = [
            RunSpec(family="gnp_sparse", n=8, seed=s, scheduler="lifo")
            for s in range(3)
        ]
        assert record_bytes(probe_cells(cells)) == record_bytes(
            [probe_cell(c) for c in cells]
        )

    def test_corpus_artifacts_replay_identically_through_batched_path(self):
        """Seed-varied corpus schedules: the batched probe path must
        produce the stored verdict bytes exactly as the per-cell path
        does (the exploration acceptance contract, batched edition)."""
        paths = corpus_paths(CORPUS_DIR)
        assert paths, "regression corpus must not be empty"
        for path in paths:
            cell, stored, _note = load_artifact(path)
            seed_varied = [
                dataclasses.replace(cell, seed=seed)
                for seed in (cell.seed, cell.seed + 1, cell.seed + 2)
            ]
            batched = explore(seed_varied, executor=SerialExecutor(probe_cell))
            plain = explore(
                seed_varied, executor=SerialExecutor(probe_cell, batch=False)
            )
            assert [artifact_bytes(r.verdict) for r in batched] == [
                artifact_bytes(r.verdict) for r in plain
            ]
            assert artifact_bytes(batched[0].verdict) == artifact_bytes(stored)


class TestTemplate:
    def test_template_run_is_run_single(self):
        spec = RunSpec(family="geometric", n=12, seed=3, scheduler="fifo")
        from repro.analysis.harness import run_single

        direct = run_single(
            "geometric", 12, 3, scheduler="fifo"
        ).to_json_dict()
        assert CellTemplate(spec).run(3).to_json_dict() == direct

    def test_template_validates_eagerly(self):
        """Construction raises exactly what the per-cell path would raise
        for the same bad spec — just before any replica is built."""
        with pytest.raises(ValueError, match="unknown delay model"):
            CellTemplate(RunSpec(family="gnp_sparse", n=8, seed=0, delay="warp"))
        with pytest.raises(ValueError, match="unknown scheduler"):
            CellTemplate(
                RunSpec(family="gnp_sparse", n=8, seed=0, scheduler="chaos")
            )
        with pytest.raises(ReproError):
            CellTemplate(
                RunSpec(family="gnp_sparse", n=8, seed=0, algorithm="nope")
            )


class TestInstanceMemo:
    """The per-process instance memo shares graphs and startup trees
    between runs, so no run may mutate them, and memoization must be
    invisible in every record."""

    FAMILY, N, SEED, METHOD = "gnp_sparse", 9, 4, "random"

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize(
        "axis", [{"fault": "lossy_light"}, {"churn": "restart_one"},
                 {"scheduler": "replay:lifo:3.1.4"}],
    )
    def test_runs_leave_the_shared_instance_untouched(self, algorithm, axis):
        spec = RunSpec(
            family=self.FAMILY, n=self.N, seed=self.SEED,
            initial_method=self.METHOD, algorithm=algorithm, **axis,
        )
        inst = instance(self.FAMILY, self.N, self.SEED)
        startup, _ = inst.startup(self.METHOD)
        first = probe_cell(spec)
        # the run drew its instance from the memo: the very same objects
        assert instance(self.FAMILY, self.N, self.SEED) is inst
        assert inst.startup(self.METHOD)[0] is startup
        graph = make_family(self.FAMILY, self.N, seed=self.SEED)
        fresh = build_spanning_tree(graph, method=self.METHOD, seed=self.SEED)
        assert inst.graph.edges() == graph.edges()
        assert startup.tree.parent_map() == fresh.tree.parent_map()
        # and a second run off the same shared objects is byte-identical
        assert probe_cell(spec).to_json_dict() == first.to_json_dict()

    def test_startup_keeps_no_report(self):
        inst = instance("gnp_sparse", 10, 0)
        startup, messages = inst.startup("echo")
        fresh = build_spanning_tree(inst.graph, method="echo", seed=0)
        assert startup.report is None
        assert messages == fresh.report.total_messages > 0

    def test_failing_build_is_not_cached(self):
        before = instance.cache_info().currsize
        for _ in range(2):
            with pytest.raises(UnknownNameError):
                instance("no_such_family", 8, 0)
        assert instance.cache_info().currsize == before

    def test_memo_is_bounded(self):
        assert instance.cache_info().maxsize == INSTANCE_MEMO_SIZE
        for seed in range(INSTANCE_MEMO_SIZE + 8):
            instance("ring", 5, seed)
        assert instance.cache_info().currsize == INSTANCE_MEMO_SIZE

    def test_eviction_is_invisible_in_records(self):
        spec = RunSpec(family="gnp_sparse", n=8, seed=2, churn="restart_one")
        warm = execute_cell(spec)
        instance.cache_clear()
        assert execute_cell(spec) == warm
