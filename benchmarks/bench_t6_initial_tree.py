"""T6 — startup-construction ablation (the paper's §4.2 remark).

The total cost is O((k − k*)·m) where k is the *initial* tree's degree:
"we can hope to change a bit the algorithm of ST construction in order
to obtain a not so bad k". The table quantifies exactly that across
every construction in the library.

The table is ``EXPERIMENTS["t6"]`` of :mod:`repro.analysis.experiments`
(the ``t6_initial_tree`` core bench).
"""

from repro.analysis import run_experiment


def test_t6_initial_tree_ablation(benchmark, emit):
    text, payload = benchmark.pedantic(run_experiment, args=("t6",), rounds=1, iterations=1)
    emit("t6_initial_tree", text)
    by_method = payload["by_method"]

    # shape: a lower-degree start costs fewer protocol messages than the
    # adversarial hub tree (the monotonicity §4.2 relies on)
    assert by_method["cdfs"].initial_degree <= by_method["greedy_hub"].initial_degree
    assert by_method["cdfs"].messages <= by_method["greedy_hub"].messages
    # all constructions converge to comparable final quality
    finals = {res.final_degree for res in by_method.values()}
    assert max(finals) - min(finals) <= 1
