"""The paper's tables T1–T9, one definition each.

Every table is an :class:`Experiment`: its instance set (the case lists
and sweep specs below), its runs, the rendered table and a claim payload
carrying the measured quantities that shape assertions read. The one
definition feeds every consumer: ``repro experiment tN``,
``examples/reproduce_paper.py``, ``benchmarks/bench_t*.py`` (which emit
the text and assert on the payload) and the ``core`` bench suite of
:mod:`repro.perf.library` (which times the same runs and gates their
work metrics).

Sweep-backed tables (T2, T3, T7) honour ``run_sweep``'s *jobs* and
*cache*; the others run in-process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable

from ..errors import lookup
from ..graphs.generators import (
    caterpillar_graph,
    complete,
    gnp_connected,
    hamiltonian_padded,
    random_geometric,
    wheel,
)
from ..mdst.algorithm import run_mdst
from ..mdst.config import MDSTConfig
from ..sequential.bounds import (
    fr_quality_guarantee,
    kmz_lower_bound,
    paper_round_count,
    rounds_within_claim,
)
from ..sequential.exact import optimal_degree
from ..sequential.fuerer_raghavachari import fuerer_raghavachari
from ..sequential.local_search import local_search_mdst
from ..spanning.preconstructed import greedy_hub_tree
from ..spanning.provider import build_spanning_tree
from .cache import ResultCache
from .fitting import fit_claim, fit_proportional
from .harness import SweepSpec, run_sweep
from .tables import Table

__all__ = [
    "CLAIMS_SPEC",
    "EXPERIMENTS",
    "Experiment",
    "T5_SIZES",
    "T6_METHODS",
    "T7_SPEC",
    "run_experiment",
    "t1_cases",
    "t4_cases",
    "t8_cases",
    "t9_cases",
]

Payload = dict[str, Any]

# -- instance sets ----------------------------------------------------------

#: T2 (message complexity) and T3 (time complexity) regress the same
#: record set against their respective predictors.
CLAIMS_SPEC = SweepSpec(
    families=("gnp_sparse", "geometric"),
    sizes=(16, 24, 32, 48, 64),
    seeds=(0, 1, 2),
    initial_methods=("echo",),
    modes=("concurrent",),
)

#: T7 — message-size audit over growing n (claim C5).
T7_SPEC = SweepSpec(
    families=("gnp_sparse",),
    sizes=(16, 32, 64, 96),
    seeds=(0,),
)

#: Hamiltonian-padded sizes with Δ* = 2 by construction (T1).
T1_HAM_SIZES = (24, 36, 48)


def t1_cases() -> list[tuple[str, object]]:
    """Ground-truth instances for the degree-quality claim (C1)."""
    return [
        ("complete", complete(10)),
        ("wheel", wheel(12)),
        ("gnp", gnp_connected(12, 0.35, seed=1)),
        ("gnp", gnp_connected(14, 0.3, seed=2)),
        ("hamiltonian", hamiltonian_padded(12, 14, seed=3)),
    ]


def t4_cases() -> list[tuple[str, object]]:
    """Workloads engineered to have many simultaneous max-degree nodes."""
    return [
        ("complete-12", complete(12)),
        ("wheel-14", wheel(14)),
        ("caterpillar-6x3", caterpillar_graph(6, 3)),
        ("caterpillar-8x4", caterpillar_graph(8, 4)),
        ("gnp-32", gnp_connected(32, 0.18, seed=4)),
    ]


#: Complete-graph sizes for the Korach–Moran–Zaks comparison (C6).
T5_SIZES = (8, 12, 16, 24, 32)

#: Every startup construction in the library (T6 ablation).
T6_METHODS = ("echo", "dfs", "ghs", "bfs", "cdfs", "random", "greedy_hub")


def t6_graph():
    return gnp_connected(40, 0.15, seed=9)


def t8_cases() -> list[tuple[str, object]]:
    return [
        ("complete-12", complete(12)),
        ("wheel-12", wheel(12)),
        ("caterpillar", caterpillar_graph(6, 3)),
        ("gnp-28", gnp_connected(28, 0.2, seed=5)),
        ("gnp-36", gnp_connected(36, 0.15, seed=6)),
        ("geo-30", random_geometric(30, 0.35, seed=7)),
    ]


def t9_cases() -> list[tuple[str, object]]:
    return [
        ("caterpillar-8x4", caterpillar_graph(8, 4)),
        ("gnp-36", gnp_connected(36, 0.15, seed=2)),
        ("geo-32", random_geometric(32, 0.34, seed=3)),
    ]


T9_CONFIGS = (
    ("concurrent+polish", MDSTConfig(mode="concurrent", polish=True)),
    ("concurrent, no polish", MDSTConfig(mode="concurrent", polish=False)),
    ("single-target", MDSTConfig(mode="single")),
)

# -- tables -----------------------------------------------------------------


def degree_quality() -> tuple[str, Payload]:
    """T1 — final degree vs ground truth Δ* (exact solver, or Δ* = 2 on
    the Hamiltonian-padded family)."""
    rows = []
    for name, g in t1_cases():
        rows.append((name, g, run_mdst(g, greedy_hub_tree(g), seed=0), optimal_degree(g)))
    for n in T1_HAM_SIZES:
        g = hamiltonian_padded(n, 2 * n, seed=n)
        rows.append(("hamiltonian", g, run_mdst(g, greedy_hub_tree(g), seed=0), 2))
    table = Table(
        ["family", "n", "k initial", "k final", "Δ*", "claim ≤ Δ*+1", "holds"],
        title="T1 — degree quality vs ground truth (claim C1)",
    )
    holds = []
    for name, g, res, opt in rows:
        claim = fr_quality_guarantee(opt)
        holds.append(res.final_degree <= claim)
        table.add(name, g.n, res.initial_degree, res.final_degree, opt, claim, holds[-1])
    return table.render(), {"rows": rows, "holds": holds}


def _claim_fits(records: list, cost: str, size: str) -> tuple[str, Payload]:
    """Fit *cost* against the per-round budget (rounds+1)·*size* and the
    end-to-end claim (k−k*+1)·*size*: the paper's argument is (per-round
    budget) × (rounds), and the claim substitutes rounds ≈ k − k* + 1."""
    y_of = attrgetter(cost)
    per_round = fit_claim(records, x_of=lambda r: (r.rounds + 1) * getattr(r, size), y_of=y_of)
    claim = fit_claim(
        records, x_of=lambda r: (r.degree_drop + 1) * getattr(r, size), y_of=y_of
    )
    text = (
        f"\n\nper-round budget fit: {cost} {per_round.fmt()}  [x = (rounds+1)·{size}]"
        f"\nend-to-end claim fit: {cost} {claim.fmt()}  [x = (k−k*+1)·{size}]"
    )
    return text, {"records": records, "per_round": per_round, "claim": claim}


def messages(records: list) -> tuple[str, Payload]:
    """T2 — messages vs the O((k − k*)·m) claim."""
    table = Table(
        ["family", "n", "m", "k0", "k*", "messages", "msgs/((k−k*+1)·m)"],
        title="T2 — message complexity vs the O((k−k*)·m) claim (C2)",
    )
    for r in records:
        table.add(r.family, r.n, r.m, r.k_initial, r.k_final, r.messages,
                  round(r.messages_normalized, 2))
    fits, payload = _claim_fits(records, "messages", "m")
    return table.render() + fits, payload


def time_complexity(records: list) -> tuple[str, Payload]:
    """T3 — causal time (longest unit-delay dependency chain) vs the
    O((k − k*)·n) claim."""
    table = Table(
        ["family", "n", "m", "k0", "k*", "causal time", "time/((k−k*+1)·n)"],
        title="T3 — causal time vs the O((k−k*)·n) claim (C3)",
    )
    for r in records:
        table.add(r.family, r.n, r.m, r.k_initial, r.k_final, r.causal_time,
                  round(r.time_normalized, 2))
    fits, payload = _claim_fits(records, "causal_time", "n")
    return table.render() + fits, payload


def rounds() -> tuple[str, Payload]:
    """T4 — concurrent and single-target rounds vs k − k* + 1. The
    ``≤ 2·claim+2`` column is ``certify``'s rule; caterpillar-8x4 and
    gnp-32 exceed it (ROADMAP item 7)."""
    rows = []
    for name, g in t4_cases():
        t0 = greedy_hub_tree(g)
        conc = run_mdst(g, t0, config=MDSTConfig(mode="concurrent"), seed=0)
        single = run_mdst(g, t0, config=MDSTConfig(mode="single"), seed=0)
        rows.append((name, g, t0, conc, single))
    table = Table(
        ["instance", "k0", "k*", "claim k−k*+1", "rounds (concurrent)",
         "rounds (single)", "≤ 2·claim+2", "max cutters/round"],
        title="T4 — rounds vs the k − k* + 1 claim (C4)",
    )
    ratios, within = [], {}
    for name, _g, _t0, conc, single in rows:
        claim = paper_round_count(conc.initial_degree, conc.final_degree)
        within[name] = rounds_within_claim(
            conc.num_rounds, conc.initial_degree, conc.final_degree
        )
        ratios.append(conc.num_rounds / claim)
        table.add(name, conc.initial_degree, conc.final_degree, claim, conc.num_rounds,
                  single.num_rounds, within[name],
                  max((r.cutters for r in conc.rounds), default=1))
    return table.render(), {"rows": rows, "ratios": ratios, "within": within}


def lower_bound() -> tuple[str, Payload]:
    """T5 — messages on K_n vs the Korach–Moran–Zaks Ω(n²/k*) bound.
    From a star start (k − k*)·m = Θ(n³), so the ratio may grow about
    linearly in n, as the paper's own worst case O(n·m) admits."""
    rows = []
    for n in T5_SIZES:
        g = complete(n)
        rows.append((n, g, run_mdst(g, greedy_hub_tree(g), seed=0)))
    table = Table(
        ["n", "m", "k0", "k*", "messages", "KMZ Ω(n²/k*)", "ratio"],
        title="T5 — messages vs the Korach–Moran–Zaks lower bound (C6)",
    )
    ratios = []
    for n, g, res in rows:
        lb = kmz_lower_bound(n, res.final_degree)
        ratios.append((n, res.messages / lb))
        table.add(n, g.m, res.initial_degree, res.final_degree,
                  res.messages, int(lb), round(ratios[-1][1], 1))
    fit = fit_proportional([n for n, _ in ratios], [r for _, r in ratios])
    text = table.render() + f"\n\nratio growth: ratio {fit.fmt()}  [x = n]"
    return text, {"rows": rows, "ratios": ratios, "fit": fit}


def ablation() -> tuple[str, Payload]:
    """T6 — every startup construction on one graph (the §4.2 remark: a
    lower initial degree k lowers the O((k − k*)·m) total)."""
    g = t6_graph()
    rows = []
    for method in T6_METHODS:
        startup = build_spanning_tree(g, method=method, seed=9)
        rows.append((method, startup, run_mdst(g, startup.tree, seed=9)))
    table = Table(
        ["construction", "k0", "k*", "rounds", "protocol msgs", "startup msgs"],
        title=f"T6 — initial-tree ablation on G(n={g.n}, m={g.m})",
    )
    for method, startup, res in rows:
        table.add(method, res.initial_degree, res.final_degree, res.num_rounds,
                  res.messages, startup.report.total_messages if startup.report else 0)
    by_method = {method: res for method, _, res in rows}
    return table.render(), {"rows": rows, "by_method": by_method}


def message_size(records: list) -> tuple[str, Payload]:
    """T7 — id fields per message (≤ 4) and bits per message."""
    table = Table(
        ["n", "messages", "max id-fields/msg", "claim ≤ 4", "bits/msg", "4·log2(n)+5"],
        title="T7 — message size audit (claim C5: O(log n) bits)",
    )
    for r in records:
        table.add(r.n, r.messages, r.max_msg_fields, r.max_msg_fields <= 4,
                  round(r.bits / max(r.messages, 1), 1), 4 * math.ceil(math.log2(r.n)) + 5)
    return table.render(), {"records": records}


def versus_sequential() -> tuple[str, Payload]:
    """T8 — the distributed protocol vs its sequential twin (local
    search) vs full Fürer–Raghavachari, from the same initial trees."""
    rows = []
    for name, g in t8_cases():
        t0 = greedy_hub_tree(g)
        dist = run_mdst(g, t0, seed=0)
        simple, _swaps = local_search_mdst(g, t0)
        fr, _stats = fuerer_raghavachari(g, t0)
        rows.append((name, t0, dist, simple, fr))
    table = Table(
        ["instance", "k0", "distributed", "local search", "Fürer–Raghavachari",
         "dist − FR"],
        title="T8 — final degree: distributed vs sequential baselines",
    )
    gaps = []
    for name, t0, dist, simple, fr in rows:
        gaps.append(dist.final_degree - fr.max_degree())
        table.add(name, t0.max_degree(), dist.final_degree, simple.max_degree(),
                  fr.max_degree(), gaps[-1])
    return table.render(), {"rows": rows, "gaps": gaps}


def design_ablation() -> tuple[str, Payload]:
    """T9 — the two open design choices: concurrency mode (§3.2.6) and
    the polish phase."""
    rows = []
    for name, g in t9_cases():
        t0 = greedy_hub_tree(g)
        for label, cfg in T9_CONFIGS:
            rows.append((name, label, run_mdst(g, t0, config=cfg, seed=0)))
    table = Table(
        ["instance", "config", "k0", "k*", "rounds", "messages", "causal time"],
        title="T9 — design ablation: concurrency mode × polish phase",
    )
    by_case: dict[str, dict[str, Any]] = {}
    for name, label, res in rows:
        by_case.setdefault(name, {})[label] = res
        table.add(name, label, res.initial_degree, res.final_degree,
                  res.num_rounds, res.messages, res.causal_time)
    return table.render(), {"rows": rows, "by_case": by_case}


@dataclass(frozen=True)
class Experiment:
    """One paper table: *slug* names its bench and output file,
    *description* its claim; *table* renders either its own runs or,
    when *sweep* is set, that sweep's records."""

    slug: str
    description: str
    table: Callable[..., tuple[str, Payload]]
    sweep: SweepSpec | None = None

    def run(
        self, jobs: int = 1, cache: ResultCache | str | Path | None = None
    ) -> tuple[str, Payload]:
        if self.sweep is None:
            return self.table()
        return self.table(run_sweep(self.sweep, jobs=jobs, cache=cache))


EXPERIMENTS: dict[str, Experiment] = {
    "t1": Experiment("t1_degree_quality",
                     "T1: final degree vs ground truth (claim C1)", degree_quality),
    "t2": Experiment("t2_messages",
                     "T2: message complexity vs O((k-k*)·m) (claim C2)",
                     messages, CLAIMS_SPEC),
    "t3": Experiment("t3_time",
                     "T3: causal time vs O((k-k*)·n) (claim C3; T2's records)",
                     time_complexity, CLAIMS_SPEC),
    "t4": Experiment("t4_rounds",
                     "T4: rounds vs the k-k*+1 claim, concurrent vs single (C4)", rounds),
    "t5": Experiment("t5_lower_bound",
                     "T5: messages vs the Korach-Moran-Zaks bound on K_n (C6)", lower_bound),
    "t6": Experiment("t6_initial_tree",
                     "T6: startup-construction ablation (the §4.2 remark)", ablation),
    "t7": Experiment("t7_message_size",
                     "T7: message-size audit, ≤4 id fields per message (C5)",
                     message_size, T7_SPEC),
    "t8": Experiment("t8_vs_sequential",
                     "T8: distributed vs sequential local search vs full F-R",
                     versus_sequential),
    "t9": Experiment("t9_ablation",
                     "T9: concurrency mode x polish phase design ablation", design_ablation),
}


def run_experiment(
    name: str, jobs: int = 1, cache: ResultCache | str | Path | None = None
) -> tuple[str, Payload]:
    """Run paper table *name* (``t1`` … ``t9``): ``(text, payload)``."""
    return lookup(EXPERIMENTS, name, "experiment").run(jobs, cache)
