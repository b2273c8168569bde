"""The algorithm table and the fr_local protocol: table entries,
end-to-end runs, quality vs the sequential baselines, executor/cache
round-trips with the algorithm axis, and CLI integration."""

from functools import partial

import pytest

from repro.algorithms import ALGORITHMS, Algorithm, FRProcess, run_algorithm
from repro.analysis import (
    CachingExecutor,
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    SweepSpec,
    run_single,
    run_sweep,
)
from repro.analysis.batch import CellTemplate
from repro.cli import main
from repro.errors import ProtocolError, ReproError, UnknownNameError
from repro.graphs import complete, gnp_connected, lollipop, ring, star, torus
from repro.mdst import MDSTConfig, MDSTProcess, run_mdst
from repro.mdst.algorithm import build_protocol
from repro.protocol.rounds import process_factory
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

FR_LOCAL = ALGORITHMS["fr_local"]


class TestRegistry:
    def test_builtins_registered(self):
        assert tuple(ALGORITHMS) == ("blin_butelle", "fr_local")
        assert all(name == algo.name for name, algo in ALGORITHMS.items())

    def test_unknown_algorithm_error_lists_names(self):
        with pytest.raises(UnknownNameError) as exc:
            run_algorithm("warp_drive", ring(4))
        assert isinstance(exc.value, ReproError)
        message = str(exc.value)
        assert "blin_butelle" in message and "fr_local" in message

    @pytest.mark.parametrize(
        "name, direct",
        [
            ("blin_butelle", lambda g, t: run_mdst(g, t, seed=1)),
            (
                "fr_local",
                lambda g, t: _run_by_hand(partial(process_factory, FRProcess), g, t),
            ),
        ],
        ids=["blin_butelle", "fr_local"],
    )
    def test_dispatch_matches_direct_run(self, name, direct):
        g = gnp_connected(14, 0.3, seed=3)
        t = greedy_hub_tree(g)
        via_registry = run_algorithm(name, g, t, seed=1)
        expected = direct(g, t)
        assert via_registry.final_tree.edges() == expected.final_tree.edges()
        assert via_registry.report == expected.report


def _run_by_hand(factory, graph, tree, seed=1):
    """Build, drive and finalize a run of *factory* without the registry."""
    net, finalize = build_protocol(graph, tree, factory, name="by_hand", seed=seed)
    return finalize(net.run())


def _blin_single(parents, *, mode, max_rounds):
    del mode  # forced
    return process_factory(
        MDSTProcess, parents, config=MDSTConfig(mode="single", max_rounds=max_rounds)
    )


@pytest.fixture
def blin_single(monkeypatch):
    """A test-only entry: the paper's process with single mode forced."""
    algo = Algorithm("test_blin_single", "MDegST, single mode forced", _blin_single)
    monkeypatch.setitem(ALGORITHMS, algo.name, algo)
    return algo


class TestRegistrationIsTheRecipe:
    """One process class plus one :data:`ALGORITHMS` entry is a whole
    algorithm: every driver of the entry runs exactly that process."""

    def test_every_driver_agrees_with_run_mdst(self, blin_single):
        spec = RunSpec(family="gnp_sparse", n=14, seed=2, algorithm=blin_single.name)
        template = CellTemplate(spec)
        graph, startup, _, _ = template.setup(spec.seed)
        tree = startup.tree
        expected = run_mdst(graph, tree, config=MDSTConfig(mode="single"), seed=2)
        assert expected.num_rounds > 0
        assert all(r.mode == "single" for r in expected.rounds)

        net, finalize = blin_single.build(graph, tree, seed=2)
        for result in (
            run_algorithm(blin_single.name, graph, tree, seed=2),
            finalize(net.run()),
        ):
            assert result.final_tree.edges() == expected.final_tree.edges()
            assert result.rounds == expected.rounds
            assert result.report == expected.report

        record = template.run(spec.seed)
        assert record.algorithm == blin_single.name
        assert record.outcome == "ok"
        assert (
            record.k_final,
            record.rounds,
            record.messages,
            record.causal_time,
            record.events,
        ) == (
            expected.final_degree,
            expected.num_rounds,
            expected.messages,
            expected.causal_time,
            expected.report.events_processed,
        )


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
        res = FR_LOCAL.run(g, t0, check_invariants=True)
        assert res.final_tree.is_spanning_tree_of(g)
        assert res.final_degree <= t0.max_degree()
        assert res.report.quiescent

    def test_message_size_claim_holds(self):
        g = gnp_connected(18, 0.3, seed=2)
        res = FR_LOCAL.run(g, greedy_hub_tree(g))
        assert res.report.max_id_fields <= 4

    def test_round_marks_are_fr_mode(self):
        g = complete(8)
        res = FR_LOCAL.run(g, greedy_hub_tree(g))
        assert res.num_rounds > 0
        assert all(r.mode == "fr" for r in res.rounds)
        assert all(r.cutters == 1 for r in res.rounds)

    def test_deterministic_across_runs(self):
        g = gnp_connected(16, 0.3, seed=1)
        t0 = greedy_hub_tree(g)
        runs = [
            FR_LOCAL.run(g, t0, delay=UniformDelay(), seed=3) for _ in range(2)
        ]
        assert runs[0].final_tree.edges() == runs[1].final_tree.edges()
        assert runs[0].report == runs[1].report

    @pytest.mark.parametrize("sched_seed", [1, 5, 9, 13])
    def test_async_schedules(self, sched_seed):
        g = gnp_connected(12, 0.35, seed=4)
        t0 = random_spanning_tree(g, seed=2)
        for delay in (UniformDelay(), ExponentialDelay(), PerLinkDelay()):
            res = FR_LOCAL.run(
                g, t0, delay=delay, seed=sched_seed, check_invariants=True
            )
            assert res.final_tree.is_spanning_tree_of(g)
            assert res.report.quiescent

    def test_dense_graph_reaches_chain(self):
        g = complete(10)
        res = FR_LOCAL.run(g, greedy_hub_tree(g))
        assert res.final_degree == 2

    def test_max_rounds_cap_marks(self):
        g = complete(10)
        res = FR_LOCAL.run(g, greedy_hub_tree(g), max_rounds=1)
        labels = [label for _t, label, _v in res.report.marks]
        assert "capped" in labels
        assert res.num_rounds <= 1

    def test_trivial_graphs(self):
        res = FR_LOCAL.run(ring(3))
        assert res.final_tree.n == 3
        two = build_spanning_tree(ring(4), method="bfs").tree
        assert FR_LOCAL.run(ring(4), two).final_degree == 2

    def test_arbitrary_nonnegative_ids(self):
        base = gnp_connected(12, 0.35, seed=6)
        g = base.relabeled({u: 17 * u + 2 for u in base.nodes()})
        res = FR_LOCAL.run(g, check_invariants=True)
        assert res.final_tree.is_spanning_tree_of(g)

    def test_final_degree_never_exceeds_initial(self):
        """The certification in the runner is also enforced internally."""
        g = gnp_connected(15, 0.3, seed=9)
        t0 = random_spanning_tree(g, seed=5)
        res = FR_LOCAL.run(g, t0)
        assert res.final_degree <= t0.max_degree()


class TestFRQuality:
    def test_tracks_sequential_fr_within_one(self):
        for seed in range(6):
            g = gnp_connected(12, 0.35, seed=seed)
            t0 = random_spanning_tree(g, seed=seed)
            res = FR_LOCAL.run(g, t0)
            fr_tree, _ = fuerer_raghavachari(g, t0)
            assert abs(res.final_degree - fr_tree.max_degree()) <= 1

    def test_within_claimed_bound_of_exact(self):
        for seed in range(6):
            g = gnp_connected(9, 0.4, seed=seed)
            opt = optimal_degree(g)
            res = FR_LOCAL.run(g, random_spanning_tree(g, seed=seed))
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
