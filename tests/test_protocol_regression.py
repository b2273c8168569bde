"""Golden-trace regression suite for the protocol-primitive refactor.

The ``repro.protocol`` layer was extracted from hand-rolled bookkeeping
inside :class:`~repro.mdst.node.MDSTProcess` and the ``spanning/``
providers. The refactor's contract is *byte-identical traces*: the exact
same messages, in the exact same order, at the exact same simulated
times. These digests were captured from the pre-refactor seed
implementation; any divergence means the primitives changed observable
protocol behaviour, not just its packaging.
"""

import hashlib

from repro.algorithms.fr_local import run_fr_local
from repro.graphs import complete, gnp_connected
from repro.mdst import MDSTConfig, run_mdst
from repro.sim import ExponentialDelay, TraceRecorder
from repro.spanning import (
    build_spanning_tree,
    greedy_hub_tree,
    random_spanning_tree,
)


def trace_digest(records) -> str:
    """Canonical sha256 over (time, action, src, dst, message repr)."""
    h = hashlib.sha256()
    for rec in records:
        line = f"{rec.time!r}|{rec.action}|{rec.src}|{rec.dst}|{rec.message!r}\n"
        h.update(line.encode("utf-8"))
    return h.hexdigest()


def mdst_digest(graph, tree, *, mode="concurrent", delay=None, seed=0) -> str:
    tr = TraceRecorder(capacity=10**6)
    run_mdst(
        graph, tree, config=MDSTConfig(mode=mode), delay=delay, seed=seed, trace=tr
    )
    return trace_digest(tr.records)


def fr_digest(graph, tree, *, delay=None, seed=0) -> str:
    tr = TraceRecorder(capacity=10**6)
    run_fr_local(graph, tree, delay=delay, seed=seed, trace=tr)
    return trace_digest(tr.records)


def spanning_digest(graph, method, *, seed=0) -> str:
    tr = TraceRecorder(capacity=10**6)
    build_spanning_tree(graph, method=method, seed=seed, trace=tr)
    return trace_digest(tr.records)


GOLDEN = {
    # full protocol, unit delays, concurrent mode
    "mdst_gnp18_concurrent": (
        "37e56a877a7255201d1135f5581efa8d8741128d2fcc68aeb3ac5b4099621946"
    ),
    # full protocol, unit delays, single mode
    "mdst_gnp18_single": (
        "a476b9c8b8b3b3fb28bf84894ced59399526a5f279c67170eb16db25b93eae12"
    ),
    # dense graph under heavy-tailed asynchrony (reordering pressure)
    "mdst_k10_exponential": (
        "8f7c3ed78aebd2f09efae427d6f2baf4b946973f6a9e450a2c3448ca65f93283"
    ),
    # random initial tree + exponential delays (the PR 1 race regression shape)
    "mdst_gnp6_race": (
        "87d8f353c59d9fa50e5f9be533bb579a0ce5d625620fb13880b494f5889f466b"
    ),
    # fr_local on the same shapes, pinned before both processes moved
    # onto the shared improvement-round base
    "fr_gnp18": (
        "08828a7c4503891512c3c539a97f84c7cdfcb8724cafa7cfba2e5b27514f4a8f"
    ),
    "fr_k10_exponential": (
        "7bba27b46788e5814aa8c46725e56f8e4404aa27194b0dcead6e8f9552f40a3a"
    ),
    "fr_gnp6_race": (
        "dc89e0c7fcdaf5fec57e512fc589d064a8218c72ee4033995322a6e650df3a98"
    ),
    # spanning providers refactored onto the primitives
    "echo_gnp16": (
        "fbef6147ba57511db65d2acb3225071dbfb306894931d4c2321b7ea2fcafcd54"
    ),
    "dfs_gnp16": (
        "3043f937c7b3435e5ea249a9e083ffb068bc3d093dd8dfae9b2d510fa50b181f"
    ),
}


class TestGoldenTraces:
    def test_mdst_gnp18_concurrent(self):
        g = gnp_connected(18, 0.3, seed=2)
        assert (
            mdst_digest(g, greedy_hub_tree(g)) == GOLDEN["mdst_gnp18_concurrent"]
        )

    def test_mdst_gnp18_single(self):
        g = gnp_connected(18, 0.3, seed=2)
        assert (
            mdst_digest(g, greedy_hub_tree(g), mode="single")
            == GOLDEN["mdst_gnp18_single"]
        )

    def test_mdst_k10_exponential(self):
        g = complete(10)
        assert (
            mdst_digest(
                g, greedy_hub_tree(g), delay=ExponentialDelay(mean=2.0), seed=5
            )
            == GOLDEN["mdst_k10_exponential"]
        )

    def test_mdst_gnp6_race(self):
        g = gnp_connected(6, 0.3, seed=3)
        t = random_spanning_tree(g, seed=0)
        assert (
            mdst_digest(g, t, delay=ExponentialDelay(), seed=15)
            == GOLDEN["mdst_gnp6_race"]
        )

    def test_fr_gnp18(self):
        g = gnp_connected(18, 0.3, seed=2)
        assert fr_digest(g, greedy_hub_tree(g)) == GOLDEN["fr_gnp18"]

    def test_fr_k10_exponential(self):
        g = complete(10)
        assert (
            fr_digest(
                g, greedy_hub_tree(g), delay=ExponentialDelay(mean=2.0), seed=5
            )
            == GOLDEN["fr_k10_exponential"]
        )

    def test_fr_gnp6_race(self):
        g = gnp_connected(6, 0.3, seed=3)
        t = random_spanning_tree(g, seed=0)
        assert (
            fr_digest(g, t, delay=ExponentialDelay(), seed=15)
            == GOLDEN["fr_gnp6_race"]
        )

    def test_echo_spanning(self):
        g = gnp_connected(16, 0.3, seed=6)
        assert spanning_digest(g, "echo") == GOLDEN["echo_gnp16"]

    def test_dfs_spanning(self):
        g = gnp_connected(16, 0.3, seed=6)
        assert spanning_digest(g, "dfs") == GOLDEN["dfs_gnp16"]


class TestGoldenStability:
    def test_digest_is_deterministic(self):
        """The digest itself must be a pure function of the run."""
        g = gnp_connected(12, 0.3, seed=1)
        t = greedy_hub_tree(g)
        assert mdst_digest(g, t) == mdst_digest(g, t)

    def test_digest_distinguishes_runs(self):
        g = gnp_connected(12, 0.3, seed=1)
        t = greedy_hub_tree(g)
        assert mdst_digest(g, t, mode="concurrent") != mdst_digest(
            g, t, mode="single"
        )
