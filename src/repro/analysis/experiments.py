"""Named experiment presets — the T1..T8/F1/F2/A2 experiments, one per
claim of the paper, as reusable functions (``repro experiment`` runs one).

Each preset returns ``(table_text, payload)`` where the payload carries
the measured quantities for programmatic assertions. The CLI
``experiment`` subcommand delegates here. The ``benchmarks/bench_t*.py``
files do not: they import :mod:`repro.perf.workloads`, whose T1–T8
instance sets differ from these presets, so the two tables are not
interchangeable.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import AnalysisError
from ..graphs.generators import complete, gnp_connected, hamiltonian_padded, wheel
from ..mdst.algorithm import run_mdst
from ..mdst.config import MDSTConfig
from ..sequential.bounds import kmz_lower_bound, paper_round_count
from ..sequential.exact import optimal_degree
from ..sequential.fuerer_raghavachari import fuerer_raghavachari
from ..sequential.local_search import local_search_mdst
from ..spanning.preconstructed import greedy_hub_tree
from ..spanning.provider import build_spanning_tree
from .fitting import fit_claim
from .harness import SweepSpec, run_sweep
from .tables import Table

__all__ = ["EXPERIMENTS", "run_experiment"]


def quality(scale: int = 1) -> tuple[str, dict[str, Any]]:
    """T1 — final degree vs ground truth Δ*."""
    cases = [
        ("complete", complete(10)),
        ("wheel", wheel(12)),
        ("gnp", gnp_connected(12, 0.35, seed=1)),
        ("hamiltonian", hamiltonian_padded(12, 14, seed=3)),
    ]
    table = Table(
        ["family", "n", "k0", "k*", "Δ*", "claim ≤ Δ*+1", "holds"],
        title="T1 — degree quality vs ground truth",
    )
    holds = []
    for name, g in cases:
        res = run_mdst(g, greedy_hub_tree(g), seed=0)
        opt = optimal_degree(g)
        ok = res.final_degree <= opt + 1
        holds.append(ok)
        table.add(name, g.n, res.initial_degree, res.final_degree, opt, opt + 1, ok)
    for n in (12 * scale, 24 * scale):
        g = hamiltonian_padded(n, 2 * n, seed=n)
        res = run_mdst(g, greedy_hub_tree(g), seed=0)
        ok = res.final_degree <= 3
        holds.append(ok)
        table.add("hamiltonian", g.n, res.initial_degree, res.final_degree, 2, 3, ok)
    return table.render(), {"holds": holds}


def messages(scale: int = 1) -> tuple[str, dict[str, Any]]:
    """T2 — message complexity fits."""
    spec = SweepSpec(
        families=("gnp_sparse", "geometric"),
        sizes=tuple(s * scale for s in (16, 24, 32)),
        seeds=(0, 1),
    )
    records = run_sweep(spec)
    table = Table(
        ["family", "n", "m", "k0", "k*", "messages", "msgs/((k−k*+1)·m)"],
        title="T2 — message complexity",
    )
    for r in records:
        table.add(r.family, r.n, r.m, r.k_initial, r.k_final, r.messages,
                  round(r.messages_normalized, 2))
    per_round = fit_claim(
        records, x_of=lambda r: (r.rounds + 1) * r.m, y_of=lambda r: r.messages
    )
    text = table.render() + f"\n\nper-round fit: {per_round.fmt()}  [x=(rounds+1)·m]"
    return text, {"fit": per_round}


def time_complexity(scale: int = 1) -> tuple[str, dict[str, Any]]:
    """T3 — causal-time complexity fits."""
    spec = SweepSpec(
        families=("gnp_sparse", "geometric"),
        sizes=tuple(s * scale for s in (16, 24, 32)),
        seeds=(0, 1),
    )
    records = run_sweep(spec)
    table = Table(
        ["family", "n", "k0", "k*", "causal time", "time/((k−k*+1)·n)"],
        title="T3 — time complexity",
    )
    for r in records:
        table.add(r.family, r.n, r.k_initial, r.k_final, r.causal_time,
                  round(r.time_normalized, 2))
    per_round = fit_claim(
        records, x_of=lambda r: (r.rounds + 1) * r.n, y_of=lambda r: r.causal_time
    )
    text = table.render() + f"\n\nper-round fit: {per_round.fmt()}  [x=(rounds+1)·n]"
    return text, {"fit": per_round}


def rounds(scale: int = 1) -> tuple[str, dict[str, Any]]:
    """T4 — rounds vs the k − k* + 1 claim."""
    cases = [("complete", complete(10 * scale)), ("wheel", wheel(12 * scale))]
    table = Table(
        ["instance", "k0", "k*", "claim", "concurrent", "single"],
        title="T4 — rounds vs k − k* + 1",
    )
    payload = []
    for name, g in cases:
        t0 = greedy_hub_tree(g)
        conc = run_mdst(g, t0, config=MDSTConfig(mode="concurrent"), seed=0)
        single = run_mdst(g, t0, config=MDSTConfig(mode="single"), seed=0)
        claim = paper_round_count(conc.initial_degree, conc.final_degree)
        payload.append((claim, conc.num_rounds, single.num_rounds))
        table.add(name, conc.initial_degree, conc.final_degree, claim,
                  conc.num_rounds, single.num_rounds)
    return table.render(), {"rows": payload}


def lower_bound(scale: int = 1) -> tuple[str, dict[str, Any]]:
    """T5 — messages vs the KMZ Ω(n²/k) bound on complete graphs."""
    table = Table(
        ["n", "messages", "Ω(n²/k*)", "ratio"],
        title="T5 — vs Korach–Moran–Zaks",
    )
    ratios = []
    for n in (8 * scale, 12 * scale, 16 * scale):
        g = complete(n)
        res = run_mdst(g, greedy_hub_tree(g), seed=0)
        lb = kmz_lower_bound(n, res.final_degree)
        ratios.append(res.messages / lb)
        table.add(n, res.messages, int(lb), round(res.messages / lb, 1))
    return table.render(), {"ratios": ratios}


def ablation(scale: int = 1) -> tuple[str, dict[str, Any]]:
    """T6 — startup-construction ablation."""
    g = gnp_connected(32 * scale, 0.15, seed=9)
    table = Table(
        ["construction", "k0", "k*", "rounds", "messages"],
        title=f"T6 — initial-tree ablation (n={g.n}, m={g.m})",
    )
    payload = {}
    for method in ("echo", "dfs", "ghs", "election", "greedy_hub"):
        startup = build_spanning_tree(g, method=method, seed=9)
        res = run_mdst(g, startup.tree, seed=9)
        payload[method] = res
        table.add(method, res.initial_degree, res.final_degree,
                  res.num_rounds, res.messages)
    return table.render(), {"results": payload}


def versus_sequential(scale: int = 1) -> tuple[str, dict[str, Any]]:
    """T8 — distributed vs local search vs Fürer–Raghavachari."""
    cases = [
        ("complete", complete(10 * scale)),
        ("gnp", gnp_connected(24 * scale, 0.2, seed=5)),
    ]
    table = Table(
        ["instance", "k0", "distributed", "local search", "F-R"],
        title="T8 — vs sequential baselines",
    )
    gaps = []
    for name, g in cases:
        t0 = greedy_hub_tree(g)
        dist = run_mdst(g, t0, seed=0)
        simple, _ = local_search_mdst(g, t0)
        fr, _ = fuerer_raghavachari(g, t0)
        gaps.append(dist.final_degree - fr.max_degree())
        table.add(name, t0.max_degree(), dist.final_degree,
                  simple.max_degree(), fr.max_degree())
    return table.render(), {"gaps": gaps}


EXPERIMENTS: dict[str, Callable[[int], tuple[str, dict[str, Any]]]] = {
    "t1": quality,
    "t2": messages,
    "t3": time_complexity,
    "t4": rounds,
    "t5": lower_bound,
    "t6": ablation,
    "t8": versus_sequential,
}


def run_experiment(name: str, scale: int = 1) -> tuple[str, dict[str, Any]]:
    """Run a named experiment preset; ``scale`` multiplies problem sizes."""
    try:
        preset = EXPERIMENTS[name]
    except KeyError:
        raise AnalysisError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    if scale < 1:
        raise AnalysisError("scale must be >= 1")
    return preset(scale)
