"""T7 — message size (claim C5: every message carries at most four
numbers/identities, i.e. O(log n) bits).

Audited live on real runs: the metrics layer records the maximum number
of identity-sized fields over every message sent, and total bit volume
under ceil(log2 n)-bit identity encoding.

The table is ``EXPERIMENTS["t7"]`` of :mod:`repro.analysis.experiments`
(sweep spec :data:`~repro.analysis.experiments.T7_SPEC`, the
``t7_message_size`` core bench).
"""

import math

from repro.analysis import run_experiment


def test_t7_message_size(benchmark, emit, sweep_jobs, sweep_cache):
    text, payload = benchmark.pedantic(
        run_experiment,
        args=("t7", sweep_jobs, sweep_cache),
        rounds=1,
        iterations=1,
    )
    emit("t7_message_size", text)
    records = payload["records"]

    assert all(r.max_msg_fields <= 4 for r in records)
    for r in records:
        assert r.bits / max(r.messages, 1) <= 4 * math.ceil(math.log2(r.n)) + 5
