"""Causal run forensics: the provenance capture layer, critical-path
extraction, per-primitive attribution, artifact IO, the timeline
exporter, and the determinism contract — captured digests byte-identical
serial vs parallel vs cold/warm cache, and fast paths untouched when
capture is off."""

import json

import pytest

from repro.algorithms import get_algorithm
from repro.analysis.cache import ResultCache
from repro.analysis.executor import (
    CachingExecutor,
    ParallelExecutor,
    SerialExecutor,
)
from repro.analysis.harness import run_single
from repro.errors import AnalysisError
from repro.exploration.cells import ExplorationCell
from repro.exploration.probe import PROBE_CACHE_SALT, probe_cell
from repro.graphs.generators import gnp_connected
from repro.obs.causal import (
    attribution,
    causal_lines,
    critical_path,
    read_causal,
    timeline,
    write_causal,
    write_timeline,
)
from repro.sim import CausalCapture, Network, stamp
from repro.sim.messages import Message
from repro.sim.node import Process
from repro.sim.provenance import UNATTRIBUTED_SECTION


# -- a micro-protocol that exercises section stamping ------------------------


class Hop(Message):
    pass


class WalkToken(Message):
    pass


class Walker(Process):
    """Node 0 starts a token that walks every neighbor once; every hop
    is stamped ``token_walk``, the kick-off send is left unstamped."""

    def on_start(self):
        if self.node_id == 0:
            # unstamped: lands in the catch-all "protocol" section
            self.send(self.neighbors[0], Hop())

    def on_message(self, sender, msg):
        if isinstance(msg, Hop):
            stamp("token_walk")
            for v in self.neighbors:
                if v != sender:
                    self.send(v, WalkToken())
            self.halt()
        else:
            self.halt()


def walker_capture(n=6, seed=3):
    graph = gnp_connected(n, 0.6, seed=seed)
    cap = CausalCapture()
    net = Network(graph, Walker, seed=seed, causal=cap)
    report = net.run()
    return graph, cap, report


class TestCaptureSemantics:
    def test_micro_protocol_attributes_token_walk(self):
        _, cap, report = walker_capture()
        summary = cap.summary()
        sections = summary["sections"]
        # the kick-off send predates any stamp -> catch-all section;
        # every token hop was stamped by the handler that sent it
        assert set(sections) == {UNATTRIBUTED_SECTION, "token_walk"}
        assert sections[UNATTRIBUTED_SECTION][0] == 1
        # section message counts sum to everything the run sent
        sent = sum(msgs for msgs, _bits in sections.values())
        assert sent == report.total_messages
        bits = sum(bits for _msgs, bits in sections.values())
        assert bits == report.total_bits

    def test_section_resets_per_delivery(self):
        """A stamp must not leak past its handler: only sends from the
        handler that stamped carry the section."""
        _, cap, _ = walker_capture()
        for row in cap.rows:
            if row.msg == "Hop":
                assert row.section == UNATTRIBUTED_SECTION
            elif row.msg == "WalkToken":
                assert row.section == "token_walk"

    def test_capture_off_leaves_run_identical(self):
        graph = gnp_connected(6, 0.6, seed=3)
        plain = Network(graph, Walker, seed=3).run()
        _, _, captured = walker_capture()
        assert plain.events_processed == captured.events_processed
        assert plain.total_messages == captured.total_messages
        assert plain.causal_time == captured.causal_time

    def test_summary_counts_in_flight_sends(self):
        _, cap, report = walker_capture()
        summary = cap.summary()
        assert summary["events"] == len(cap.rows)
        assert summary["messages"] + summary["in_flight"] == (
            report.total_messages
        )


# -- critical path against the engine's causal_time metric -------------------

GOLDEN_WORKLOADS = [
    ("blin_butelle", "gnp_sparse", 12, 3),
    ("blin_butelle", "ring", 10, 0),
    ("blin_butelle", "pref_attach", 12, 1),
    ("fr_local", "gnp_sparse", 12, 3),
    ("fr_local", "ring", 10, 0),
]

#: Per-section and per-phase (messages, bits) tallies of each golden
#: workload. A trace digest cannot see a ``stamp()`` that moved between
#: primitives; these tallies can.
GOLDEN_TALLIES = {
    ("blin_butelle", "gnp_sparse", 12, 3): {
        "sections": {
            "barrier": [12, 156],
            "convergecast": [58, 1126],
            "protocol": [75, 935],
            "root_migration": [4, 68],
            "wave": [137, 1961],
        },
        "phases": {},
    },
    ("blin_butelle", "ring", 10, 0): {
        "sections": {"convergecast": [11, 163], "protocol": [16, 152]},
        "phases": {},
    },
    ("blin_butelle", "pref_attach", 12, 1): {
        "sections": {
            "barrier": [12, 156],
            "convergecast": [58, 1082],
            "exchange": [5, 33],
            "protocol": [112, 1468],
            "root_migration": [12, 236],
            "wave": [204, 3352],
        },
        "phases": {},
    },
    ("fr_local", "gnp_sparse", 12, 3): {
        "sections": {
            "convergecast": [47, 939],
            "protocol": [62, 794],
            "sequencer": [14, 182],
            "wave": [100, 1460],
        },
        "phases": {"improve": [124, 1824], "search": [99, 1551]},
    },
    ("fr_local", "ring", 10, 0): {
        "sections": {
            "convergecast": [11, 199],
            "protocol": [14, 126],
            "sequencer": [2, 26],
        },
        "phases": {"search": [27, 351]},
    },
}


def captured_run(algorithm, family, n, seed):
    cap = CausalCapture()
    record = run_single(
        family, n, seed,
        initial_method="random", algorithm=algorithm, causal=cap,
    )
    return cap, record


class TestCriticalPath:
    @pytest.mark.parametrize(
        "algorithm,family,n,seed", GOLDEN_WORKLOADS
    )
    def test_chain_realizes_causal_time_exactly(
        self, algorithm, family, n, seed, tmp_path
    ):
        """The extracted critical path must be the chain the engine's
        ``causal_time`` metric counts: same length, strictly increasing
        depths, verified on every golden workload."""
        cap, record = captured_run(algorithm, family, n, seed)
        assert cap.summary()["crit_len"] == record.causal_time
        path = write_causal(tmp_path / "c.jsonl", cap)
        header, rows = read_causal(path)
        chain = critical_path(rows)
        assert len(chain) == record.causal_time
        for i, row in enumerate(chain):
            assert row["depth"] == i + 1
            assert row["kind"] == "deliver"

    @pytest.mark.parametrize(
        "algorithm,family,n,seed", GOLDEN_WORKLOADS[:2]
    )
    def test_attribution_sums_match_engine_totals(
        self, algorithm, family, n, seed
    ):
        cap, record = captured_run(algorithm, family, n, seed)
        sections = cap.summary()["sections"]
        assert sum(m for m, _ in sections.values()) == record.messages
        assert sum(b for _, b in sections.values()) == record.bits

    @pytest.mark.parametrize(
        "algorithm,family,n,seed", GOLDEN_WORKLOADS
    )
    def test_section_and_phase_tallies_are_pinned(
        self, algorithm, family, n, seed
    ):
        cap, _ = captured_run(algorithm, family, n, seed)
        summary = cap.summary()
        pinned = GOLDEN_TALLIES[(algorithm, family, n, seed)]
        assert summary["sections"] == pinned["sections"]
        assert summary["phases"] == pinned["phases"]

    def test_fr_local_attributes_phases(self):
        cap, record = captured_run("fr_local", "gnp_sparse", 12, 3)
        phases = cap.summary()["phases"]
        assert set(phases) == {"search", "improve"}
        assert sum(m for m, _ in phases.values()) <= record.messages

    def test_record_carries_the_digest(self):
        cap, record = captured_run("blin_butelle", "gnp_sparse", 10, 0)
        assert record.causal == cap.summary()
        # and the digest survives the record's JSON round-trip
        from repro.analysis.records import RunRecord

        clone = RunRecord.from_json_dict(
            json.loads(json.dumps(record.to_json_dict()))
        )
        assert clone.causal["crit_len"] == record.causal_time


# -- artifact IO --------------------------------------------------------------


class TestArtifact:
    def test_round_trip(self, tmp_path):
        cap, _ = captured_run("blin_butelle", "ring", 10, 0)
        path = write_causal(tmp_path / "c.jsonl", cap, command="test")
        header, rows = read_causal(path)
        assert header["artifact"] == "causal"
        assert header["command"] == "test"
        assert header["summary"] == cap.summary()
        assert len(rows) == len(cap.rows)

    def test_lines_are_byte_deterministic(self):
        cap_a, _ = captured_run("blin_butelle", "ring", 10, 0)
        cap_b, _ = captured_run("blin_butelle", "ring", 10, 0)
        assert causal_lines(cap_a) == causal_lines(cap_b)

    def test_read_rejects_missing_and_malformed(self, tmp_path):
        with pytest.raises(AnalysisError):
            read_causal(tmp_path / "nope.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        with pytest.raises(AnalysisError):
            read_causal(bad)
        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text(
            json.dumps({"kind": "header", "artifact": "trace"}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(AnalysisError):
            read_causal(wrong)

    def test_critical_path_rejects_corrupt_chains(self, tmp_path):
        """A tampered artifact whose clock links do not realize the
        claimed depth must fail loudly, not return a wrong path."""
        cap, _ = captured_run("blin_butelle", "ring", 8, 0)
        path = write_causal(tmp_path / "c.jsonl", cap)
        _, rows = read_causal(path)
        deepest = max(rows, key=lambda r: r["depth"])
        deepest["clock"] = None  # sever the chain mid-walk
        if deepest["depth"] > 1:
            with pytest.raises(AnalysisError):
                critical_path(rows)


# -- timeline export ----------------------------------------------------------


class TestTimeline:
    def test_chrome_trace_shape_and_determinism(self, tmp_path):
        cap, record = captured_run("blin_butelle", "gnp_sparse", 10, 0)
        path = write_causal(tmp_path / "c.jsonl", cap)
        header, rows = read_causal(path)
        doc = timeline(header, rows)
        assert doc["otherData"]["crit_len"] == record.causal_time
        events = doc["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        flows = [e for e in events if e["ph"] in ("s", "f")]
        metas = [e for e in events if e["ph"] == "M"]
        assert len(slices) == len(rows)
        # one start + one finish flow marker per critical-path edge
        assert len(flows) == 2 * (record.causal_time - 1)
        assert len(metas) == record.n
        # export is deterministic: same artifact -> same bytes
        out_a = write_timeline(tmp_path / "a.json", header, rows)
        out_b = write_timeline(tmp_path / "b.json", header, rows)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_attribution_view_mirrors_summary(self, tmp_path):
        cap, _ = captured_run("blin_butelle", "ring", 8, 0)
        path = write_causal(tmp_path / "c.jsonl", cap)
        header, _ = read_causal(path)
        att = attribution(header)
        assert att["sections"] == cap.summary()["sections"]
        assert att["crit_len"] == cap.summary()["crit_len"]


# -- determinism across backends ---------------------------------------------


def probe_specs():
    cells = [
        ExplorationCell(family="gnp_sparse", n=8, seed=s) for s in (0, 1)
    ] + [
        ExplorationCell(
            family="gnp_sparse", n=8, seed=0, churn="churn_storm"
        )
    ]
    return [spec for cell in cells for spec in cell.run_specs()]


class TestBackendDeterminism:
    def test_serial_vs_parallel_capture_identical(self):
        specs = probe_specs()
        serial = SerialExecutor(probe_cell).run(specs)
        pool = ParallelExecutor(2, probe_cell)
        try:
            parallel = pool.run(specs)
        finally:
            pool.close()
        assert serial == parallel
        assert all(r.causal for r in serial)

    def test_cold_vs_warm_cache_capture_identical(self, tmp_path):
        specs = probe_specs()
        cache = ResultCache(tmp_path / "cache", salt=PROBE_CACHE_SALT)
        cold = CachingExecutor(SerialExecutor(probe_cell), cache).run(specs)
        assert cache.misses > 0
        warm_cache = ResultCache(tmp_path / "cache", salt=PROBE_CACHE_SALT)
        warm = CachingExecutor(
            SerialExecutor(probe_cell), warm_cache
        ).run(specs)
        assert warm_cache.hits == len(specs)
        assert cold == warm
        assert all(r.causal == c.causal for r, c in zip(cold, warm))

    def test_stalled_capture_is_deterministic(self):
        """A fault-stalled run still captures (the partial DAG is a pure
        function of the deterministic stalled schedule)."""
        a = CausalCapture()
        b = CausalCapture()
        ra = run_single("gnp_sparse", 8, 0, fault="crash_storm", causal=a)
        rb = run_single("gnp_sparse", 8, 0, fault="crash_storm", causal=b)
        assert ra == rb
        assert a.summary() == b.summary()
        if ra.outcome == "stalled":
            assert ra.causal == a.summary()


# -- the near-bound coverage satellite ----------------------------------------


class TestNearBoundSignal:
    def test_verdict_carries_opt_outside_the_artifact(self):
        from repro.exploration.explorer import explore

        cell = ExplorationCell(family="gnp_sparse", n=6, seed=0)
        (result,) = explore([cell])
        assert result.verdict.opt is not None  # n=6 is exactly solvable
        assert "opt" not in result.verdict.to_json_dict()

    def test_signature_near_bound_flips_only_at_the_bound(self):
        from dataclasses import replace

        from repro.exploration.fuzz import record_signature

        record = run_single("gnp_sparse", 6, 0, initial_method="random")
        opt = 2
        bound = get_algorithm(record.algorithm).degree_bound(opt, record.n)
        at_bound = replace(record, k_final=bound)
        below = replace(record, k_final=bound - 1)
        assert record_signature(at_bound, opt)[-1] is True
        assert record_signature(below, opt)[-1] is False
        assert record_signature(at_bound, None)[-1] is False
