"""The algorithm registry and the fr_local protocol: registration,
end-to-end runs, quality vs the sequential baselines, executor/cache
round-trips with the algorithm axis, and CLI integration."""

import pytest

from repro.algorithms import (
    Algorithm,
    algorithm_names,
    get_algorithm,
    register_algorithm,
    run_algorithm,
    run_fr_local,
)
from repro.algorithms.registry import _REGISTRY
from repro.analysis import (
    CachingExecutor,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    SweepSpec,
    run_single,
    run_sweep,
)
from repro.cli import main
from repro.errors import ProtocolError, ReproError
from repro.graphs import complete, gnp_connected, lollipop, ring, star, torus
from repro.mdst import run_mdst
from repro.sequential import (
    fr_quality_guarantee,
    fuerer_raghavachari,
    optimal_degree,
)
from repro.sim import ExponentialDelay, PerLinkDelay, UniformDelay
from repro.spanning import (
    build_spanning_tree,
    greedy_hub_tree,
    random_spanning_tree,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert algorithm_names() == ("blin_butelle", "fr_local")

    def test_unknown_algorithm_error_lists_names(self):
        with pytest.raises(ReproError) as exc:
            get_algorithm("warp_drive")
        message = str(exc.value)
        assert "blin_butelle" in message and "fr_local" in message

    def test_duplicate_registration_rejected(self):
        algo = get_algorithm("fr_local")
        with pytest.raises(ReproError, match="already registered"):
            register_algorithm(algo)

    def test_bad_name_rejected(self):
        with pytest.raises(ReproError, match="bad algorithm name"):
            register_algorithm(
                Algorithm(
                    name="no spaces!",
                    run=lambda *a, **k: None,
                    description="x",
                )
            )

    def test_replace_allows_override(self):
        original = get_algorithm("fr_local")
        try:
            register_algorithm(original, replace=True)
        finally:
            _REGISTRY["fr_local"] = original

    def test_blin_dispatch_matches_run_mdst(self):
        g = gnp_connected(14, 0.3, seed=3)
        t = greedy_hub_tree(g)
        via_registry = run_algorithm("blin_butelle", g, t, seed=1)
        direct = run_mdst(g, t, seed=1)
        assert via_registry.final_tree.edges() == direct.final_tree.edges()
        assert via_registry.report.by_type == direct.report.by_type


class TestFRLocalEndToEnd:
    @pytest.mark.parametrize(
        "g",
        [
            torus(4, 4),
            lollipop(6, 5),
            ring(16),
            complete(9),
            star(9),
            gnp_connected(20, 0.25, seed=7),
        ],
        ids=["torus", "lollipop", "ring", "complete", "star", "gnp"],
    )
    def test_structured_topologies(self, g):
        t0 = greedy_hub_tree(g)
        res = run_fr_local(g, t0, check_invariants=True)
        assert res.final_tree.is_spanning_tree_of(g)
        assert res.final_degree <= t0.max_degree()
        assert res.report.quiescent

    def test_message_size_claim_holds(self):
        g = gnp_connected(18, 0.3, seed=2)
        res = run_fr_local(g, greedy_hub_tree(g))
        assert res.report.max_id_fields <= 4

    def test_round_marks_are_fr_mode(self):
        g = complete(8)
        res = run_fr_local(g, greedy_hub_tree(g))
        assert res.num_rounds > 0
        assert all(r.mode == "fr" for r in res.rounds)
        assert all(r.cutters == 1 for r in res.rounds)

    def test_deterministic_across_runs(self):
        g = gnp_connected(16, 0.3, seed=1)
        t0 = greedy_hub_tree(g)
        runs = [
            run_fr_local(g, t0, delay=UniformDelay(), seed=3) for _ in range(2)
        ]
        assert runs[0].final_tree.edges() == runs[1].final_tree.edges()
        assert runs[0].report == runs[1].report

    @pytest.mark.parametrize("sched_seed", [1, 5, 9, 13])
    def test_async_schedules(self, sched_seed):
        g = gnp_connected(12, 0.35, seed=4)
        t0 = random_spanning_tree(g, seed=2)
        for delay in (UniformDelay(), ExponentialDelay(), PerLinkDelay()):
            res = run_fr_local(
                g, t0, delay=delay, seed=sched_seed, check_invariants=True
            )
            assert res.final_tree.is_spanning_tree_of(g)
            assert res.report.quiescent

    def test_dense_graph_reaches_chain(self):
        g = complete(10)
        res = run_fr_local(g, greedy_hub_tree(g))
        assert res.final_degree == 2

    def test_max_rounds_cap_marks(self):
        g = complete(10)
        res = run_fr_local(g, greedy_hub_tree(g), max_rounds=1)
        labels = [label for _t, label, _v in res.report.marks]
        assert "capped" in labels
        assert res.num_rounds <= 1

    def test_trivial_graphs(self):
        res = run_fr_local(ring(3))
        assert res.final_tree.n == 3
        two = build_spanning_tree(ring(4), method="bfs").tree
        assert run_fr_local(ring(4), two).final_degree == 2

    def test_arbitrary_nonnegative_ids(self):
        base = gnp_connected(12, 0.35, seed=6)
        g = base.relabeled({u: 17 * u + 2 for u in base.nodes()})
        res = run_fr_local(g, check_invariants=True)
        assert res.final_tree.is_spanning_tree_of(g)

    def test_final_degree_never_exceeds_initial(self):
        """The certification in the runner is also enforced internally."""
        g = gnp_connected(15, 0.3, seed=9)
        t0 = random_spanning_tree(g, seed=5)
        res = run_fr_local(g, t0)
        assert res.final_degree <= t0.max_degree()


class TestFRQuality:
    def test_tracks_sequential_fr_within_one(self):
        for seed in range(6):
            g = gnp_connected(12, 0.35, seed=seed)
            t0 = random_spanning_tree(g, seed=seed)
            res = run_fr_local(g, t0)
            fr_tree, _ = fuerer_raghavachari(g, t0)
            assert abs(res.final_degree - fr_tree.max_degree()) <= 1

    def test_within_claimed_bound_of_exact(self):
        for seed in range(6):
            g = gnp_connected(9, 0.4, seed=seed)
            opt = optimal_degree(g)
            res = run_fr_local(g, random_spanning_tree(g, seed=seed))
            assert res.final_degree <= fr_quality_guarantee(opt)


class TestAlgorithmAxis:
    SPEC = SweepSpec(
        families=("gnp_sparse",),
        sizes=(10,),
        seeds=(0, 1),
        algorithms=("blin_butelle", "fr_local"),
    )

    def test_cells_carry_algorithm(self):
        cells = self.SPEC.cells()
        assert len(cells) == 4
        assert [c.algorithm for c in cells] == [
            "blin_butelle", "blin_butelle", "fr_local", "fr_local",
        ]

    def test_unknown_algorithm_axis_fails_fast(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError, match="fr_local"):
            SweepSpec(algorithms=("warp",))

    def test_records_round_trip_parallel_and_cache(self, tmp_path):
        """Acceptance: records with an algorithm axis reproduce bit-for-bit
        through Serial, Parallel and Caching executors."""
        cells = self.SPEC.cells()
        serial = SerialExecutor().run(cells)
        assert [r.algorithm for r in serial] == [c.algorithm for c in cells]
        parallel = ParallelExecutor(jobs=2).run(cells)
        assert parallel == serial
        cache = ResultCache(tmp_path / "cache")
        cached_first = run_sweep(self.SPEC, cache=cache)
        assert cached_first == serial

        class Exploding:
            def run(self, cells):
                raise AssertionError("cache should satisfy every cell")

        cached_second = CachingExecutor(Exploding(), cache).run(cells)
        assert cached_second == serial

    def test_algorithms_share_instances_but_not_results(self):
        rec_blin = run_single("complete", 9, seed=0, algorithm="blin_butelle")
        rec_fr = run_single("complete", 9, seed=0, algorithm="fr_local")
        assert rec_blin.n == rec_fr.n and rec_blin.m == rec_fr.m
        assert rec_blin.k_initial == rec_fr.k_initial
        assert rec_blin.algorithm == "blin_butelle"
        assert rec_fr.algorithm == "fr_local"


class TestCLIIntegration:
    def test_sweep_algorithm_axis(self, capsys):
        assert (
            main(
                [
                    "sweep", "--families", "complete", "--sizes", "8",
                    "--seeds", "0", "--algorithm", "blin_butelle", "fr_local",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "blin_butelle" in out and "fr_local" in out

    def test_compare_all_algorithms(self, capsys):
        assert (
            main(["compare", "--family", "ring", "--n", "10", "--exact"]) == 0
        )
        out = capsys.readouterr().out
        assert "algorithm comparison" in out
        assert "blin_butelle" in out and "fr_local" in out
        assert "Δ*" in out

    def test_run_with_algorithm_flag(self, capsys):
        assert (
            main(
                ["run", "--family", "ring", "--n", "8", "--algorithm", "fr_local"]
            )
            == 0
        )
        assert "degree" in capsys.readouterr().out

    def test_unknown_algorithm_flag_lists_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--algorithm", "nope"])
        err = capsys.readouterr().err
        assert "blin_butelle" in err and "fr_local" in err


class TestFRWhitebox:
    def test_improve_order_from_non_parent_raises(self):
        from repro.algorithms.fr_local import FRProcess, ImproveOrder
        from repro.sim import NodeContext

        ctx = NodeContext(node_id=5, neighbors=(1, 2, 3))
        ctx._send = lambda *a: None
        ctx._now = lambda: 0.0
        ctx._mark = lambda *a, **k: None
        proc = FRProcess(ctx, parent=1, children={2})
        with pytest.raises(ProtocolError):
            proc.on_message(3, ImproveOrder(k=3, target=5))

    def test_degree_mismatch_target_raises(self):
        from repro.algorithms.fr_local import FRProcess, ImproveOrder
        from repro.sim import NodeContext

        ctx = NodeContext(node_id=5, neighbors=(1, 2, 3))
        ctx._send = lambda *a: None
        ctx._now = lambda: 0.0
        ctx._mark = lambda *a, **k: None
        proc = FRProcess(ctx, parent=1, children={2})  # degree 2
        with pytest.raises(ProtocolError, match="target degree"):
            proc.on_message(1, ImproveOrder(k=5, target=5))
