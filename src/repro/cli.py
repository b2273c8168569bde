"""Command-line interface: ``python -m repro`` / ``repro-mdst``.

Subcommands
-----------
``run``       one protocol run with a summary and optional tree rendering
``sweep``     a small sweep printed as a paper-style table
``compare``   head-to-head of registered algorithms on one instance
``campaign``  run a named / file-based scenario campaign into a report
``explore``   adversarial schedule exploration + counterexample shrinking
``fuzz``      coverage-guided schedule fuzzing with mid-run churn
``bench``     run a benchmark suite; record, compare and gate baselines
``cache``     inspect / verify / prune a packed result cache
``obs``       summarize a telemetry trace, or diff two (``--diff A B``)
``inspect``   causal forensics over a ``--causal-out`` artifact:
              critical path, per-primitive attribution, timeline export
``exact``     ground-truth Δ* for a small instance
``families``  list workload families, delays, algorithms, faults,
              scheduler policies, scenarios, bench suites
``certify``   run + certification against the paper's claims
"""

from __future__ import annotations

import argparse
import sys

from .algorithms import DEFAULT_ALGORITHM, algorithm_names, get_algorithm
from .analysis.cache import ResultCache
from .analysis.harness import SweepSpec, run_single, run_sweep
from .analysis.tables import Table
from .errors import AnalysisError, ProtocolError, StallError, TerminationError
from .graphs.generators import FAMILIES, make_family
from .mdst.config import MODES
from .obs import (
    capture,
    diff_traces,
    read_trace,
    summarize,
    trace_lines,
    write_causal,
    write_trace,
)
from .sequential.exact import optimal_degree
from .sim.churn import (
    NO_CHURN,
    churn_names,
    churn_plan_from_name,
    merge_plans,
)
from .sim.delays import DELAY_NAMES, delay_model_from_name
from .sim.faults import NO_FAULT, fault_names, fault_plan_from_name
from .sim.provenance import CausalCapture
from .sim.scheduler import NO_SCHEDULER, scheduler_from_name, scheduler_names
from .spanning.provider import (
    CENTRALIZED_METHODS,
    DISTRIBUTED_METHODS,
    build_spanning_tree,
)
from .verify.certification import certify_run
from .viz.ascii_tree import render_degree_histogram, render_tree

__all__ = ["main", "build_parser"]

#: family names are validated eagerly via argparse choices — a typo
#: fails at the parser with the valid names, not deep inside make_family
_FAMILY_CHOICES = tuple(sorted(FAMILIES))


def build_parser() -> argparse.ArgumentParser:
    # the perf package registers its bench library at import; pulled in
    # here (not at module top) so plain `repro run`-style invocations
    # never pay for it — the rest of the perf stack stays behind the
    # lazy import in _bench
    from .perf.compare import TIME_TOLERANCE
    from .perf.spec import SUITES

    parser = argparse.ArgumentParser(
        prog="repro-mdst",
        description=(
            "Distributed approximated Minimum Degree Spanning Tree "
            "(Blin & Butelle 2003) — reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the protocol once")
    _common_axes(run_p)
    run_p.add_argument("--show-tree", action="store_true", help="render the final tree")

    sweep_p = sub.add_parser("sweep", help="run a sweep and print a table")
    sweep_p.add_argument(
        "--families",
        nargs="+",
        default=["gnp_sparse"],
        choices=_FAMILY_CHOICES,
        metavar="FAMILY",
        help=f"workload families ({', '.join(_FAMILY_CHOICES)})",
    )
    sweep_p.add_argument("--sizes", nargs="+", type=int, default=[16, 32])
    sweep_p.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    sweep_p.add_argument("--initial", default="echo")
    sweep_p.add_argument("--mode", default="concurrent", choices=list(MODES))
    sweep_p.add_argument("--delay", default="unit", choices=list(DELAY_NAMES))
    sweep_p.add_argument(
        "--algorithm",
        nargs="+",
        default=[DEFAULT_ALGORITHM],
        choices=list(algorithm_names()),
        metavar="NAME",
        help=(
            "registered algorithm(s) to sweep; one table row per "
            f"(algorithm, cell). Registered: {', '.join(algorithm_names())}"
        ),
    )
    sweep_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (records stay in deterministic sweep order)",
    )
    sweep_p.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="result-cache directory; completed cells are not re-run",
    )
    sweep_p.add_argument(
        "--fault",
        nargs="+",
        default=[NO_FAULT],
        choices=list(fault_names()),
        metavar="PLAN",
        help=f"named fault plan(s) to sweep ({', '.join(fault_names())})",
    )
    sweep_p.add_argument(
        "--scheduler",
        nargs="+",
        default=[NO_SCHEDULER],
        choices=list(scheduler_names()),
        metavar="POLICY",
        help=(
            "scheduler policy/policies to sweep "
            f"({', '.join(scheduler_names())})"
        ),
    )
    sweep_p.add_argument(
        "--churn",
        nargs="+",
        default=[NO_CHURN],
        choices=list(churn_names()),
        metavar="PLAN",
        help=f"named churn plan(s) to sweep ({', '.join(churn_names())})",
    )
    _add_trace_args(sweep_p)

    compare_p = sub.add_parser(
        "compare",
        help="run registered algorithms head-to-head on one instance",
    )
    compare_p.add_argument(
        "--family",
        default="gnp_sparse",
        choices=_FAMILY_CHOICES,
        metavar="FAMILY",
        help=f"workload family ({', '.join(_FAMILY_CHOICES)})",
    )
    compare_p.add_argument("--n", type=int, default=24)
    compare_p.add_argument("--seed", type=int, default=0)
    compare_p.add_argument(
        "--initial",
        default="echo",
        choices=list(DISTRIBUTED_METHODS + CENTRALIZED_METHODS),
    )
    compare_p.add_argument("--delay", default="unit", choices=list(DELAY_NAMES))
    compare_p.add_argument(
        "--fault",
        default=NO_FAULT,
        choices=list(fault_names()),
        metavar="PLAN",
        help=(
            "named fault plan injected into every algorithm "
            f"({', '.join(fault_names())}); stalled runs are tabulated"
        ),
    )
    compare_p.add_argument(
        "--scheduler",
        default=NO_SCHEDULER,
        choices=list(scheduler_names()),
        metavar="POLICY",
        help=(
            "adversarial scheduler policy ordering every algorithm's "
            f"deliveries ({', '.join(scheduler_names())})"
        ),
    )
    compare_p.add_argument(
        "--churn",
        default=NO_CHURN,
        choices=list(churn_names()),
        metavar="PLAN",
        help=(
            "named mid-run churn plan applied to every algorithm "
            f"({', '.join(churn_names())}); stalled runs are tabulated"
        ),
    )
    compare_p.add_argument(
        "--algorithm",
        nargs="+",
        default=None,
        choices=list(algorithm_names()),
        metavar="NAME",
        help=(
            "algorithm(s) to compare (default: all). Registered: "
            f"{', '.join(algorithm_names())}"
        ),
    )
    compare_p.add_argument(
        "--exact",
        action="store_true",
        help="also solve the instance exactly (small n only)",
    )

    exact_p = sub.add_parser("exact", help="ground-truth optimal degree (small n)")
    exact_p.add_argument(
        "--family",
        default="gnp_sparse",
        choices=_FAMILY_CHOICES,
        metavar="FAMILY",
        help=f"workload family ({', '.join(_FAMILY_CHOICES)})",
    )
    exact_p.add_argument("--n", type=int, default=10)
    exact_p.add_argument("--seed", type=int, default=0)

    sub.add_parser(
        "families",
        help=(
            "list workload families, delay models, algorithms, fault "
            "plans and built-in scenarios"
        ),
    )

    cert_p = sub.add_parser("certify", help="run + certify against the claims")
    _common_axes(cert_p)

    exp_p = sub.add_parser(
        "experiment", help="regenerate a paper experiment table (t1..t8)"
    )
    exp_p.add_argument("name", help="experiment id, e.g. t1")
    exp_p.add_argument("--scale", type=int, default=1, help="size multiplier")

    camp_p = sub.add_parser(
        "campaign",
        help="run a scenario campaign into a markdown + JSON report",
    )
    camp_p.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help="built-in scenario name(s); see --list",
    )
    camp_p.add_argument(
        "--list", action="store_true", help="list built-in scenarios and exit"
    )
    camp_p.add_argument(
        "--file",
        default=None,
        metavar="PATH",
        help="run a campaign/scenario document (.toml or .json) instead",
    )
    camp_p.add_argument(
        "--tiny",
        action="store_true",
        help="shrink every scenario to a smoke-test footprint (CI mode)",
    )
    camp_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (reports are identical for any value)",
    )
    camp_p.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="result-cache directory shared across campaign cells",
    )
    camp_p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write report.md + report.json under DIR",
    )
    _add_trace_args(camp_p)

    bench_p = sub.add_parser(
        "bench",
        help=(
            "run a benchmark suite; record BENCH_*.json trajectory "
            "points, compare against a baseline and gate regressions"
        ),
    )
    bench_p.add_argument(
        "--list", action="store_true", help="list suites and benches, then exit"
    )
    bench_p.add_argument(
        "--suite",
        default="smoke",
        choices=list(SUITES),
        help="bench suite to run (validated eagerly, like every axis)",
    )
    bench_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the sweep work pass (the work section "
            "is identical for any value; timing is always in-process)"
        ),
    )
    bench_p.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="result-cache directory for the sweep work pass",
    )
    bench_p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the fresh baseline as JSON (e.g. BENCH_0005.json)",
    )
    bench_p.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help=(
            "baseline JSON to compare the fresh run against (default "
            "with --gate: the newest BENCH_*.json in the cwd)"
        ),
    )
    bench_p.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero if the comparison has regression verdicts",
    )
    bench_p.add_argument(
        "--gate-time",
        choices=("auto", "on", "off"),
        default="auto",
        help=(
            "gate time metrics: auto = only when the machine "
            "fingerprints match (work metrics are always gated exactly)"
        ),
    )
    bench_p.add_argument(
        "--tolerance",
        type=float,
        default=TIME_TOLERANCE,
        help="relative time-regression tolerance (default %(default)s)",
    )
    bench_p.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="override every bench's timing repeats (min-of-k)",
    )
    bench_p.add_argument(
        "--warmup",
        type=int,
        default=None,
        help="override every bench's warm-up iterations",
    )
    bench_p.add_argument(
        "--note",
        default="",
        help="free-form note stored in the baseline document",
    )
    bench_p.add_argument(
        "--profile",
        default=None,
        metavar="BENCH",
        help=(
            "run one named bench under cProfile and print the hottest "
            "functions instead of running the suite"
        ),
    )
    bench_p.add_argument(
        "--profile-lines",
        type=int,
        default=25,
        help="rows per --profile table (default %(default)s)",
    )
    _add_trace_args(bench_p)

    cache_p = sub.add_parser(
        "cache",
        help=(
            "inspect and maintain a packed result cache "
            "(segment store + index under DIR)"
        ),
    )
    cache_p.add_argument("dir", metavar="DIR", help="result-cache directory")
    cache_action = cache_p.add_mutually_exclusive_group(required=True)
    cache_action.add_argument(
        "--stats",
        action="store_true",
        help="print entry/segment/byte counts and the active schema version",
    )
    cache_action.add_argument(
        "--verify",
        action="store_true",
        help="check index/segment consistency; exit 1 listing any problems",
    )
    cache_action.add_argument(
        "--prune",
        action="store_true",
        help="drop packed entries recorded under a stale schema version",
    )
    cache_p.add_argument(
        "--json",
        action="store_true",
        help="with --stats: print the stats as one machine-readable "
        "JSON object instead of the summary line",
    )

    obs_p = sub.add_parser(
        "obs",
        help=(
            "summarize a JSONL telemetry trace written by --trace-out "
            "(span table, counters, cache hit rate)"
        ),
    )
    obs_p.add_argument(
        "trace",
        nargs="?",
        default=None,
        metavar="PATH",
        help="trace file to summarize",
    )
    obs_p.add_argument(
        "--diff",
        nargs=2,
        default=None,
        metavar=("A", "B"),
        help=(
            "compare two traces instead: print span/counter deltas and "
            "exit 1 when the deterministic work section diverges "
            "(the determinism contract's CI check)"
        ),
    )

    ins_p = sub.add_parser(
        "inspect",
        help=(
            "causal forensics over an artifact written by --causal-out: "
            "critical path, per-primitive attribution, timeline export"
        ),
    )
    ins_p.add_argument(
        "artifact",
        metavar="PATH",
        help="causal JSONL artifact (written by run/certify --causal-out)",
    )
    ins_p.add_argument(
        "--critical-path",
        action="store_true",
        help=(
            "print the exact critical path — the dependency chain that "
            "realizes the run's causal time"
        ),
    )
    ins_p.add_argument(
        "--attribution",
        action="store_true",
        help=(
            "print per-primitive and per-phase message/bit attribution "
            "tables"
        ),
    )
    ins_p.add_argument(
        "--timeline",
        default=None,
        metavar="OUT",
        help=(
            "export a Chrome-trace / Perfetto JSON timeline to OUT "
            "(open in chrome://tracing or ui.perfetto.dev)"
        ),
    )
    ins_p.add_argument(
        "--json",
        action="store_true",
        help="print the requested views as one machine-readable JSON object",
    )

    exp = sub.add_parser(
        "explore",
        help=(
            "fan (graph x seed x scheduler-policy) cells through the "
            "differential oracle; shrink and save any counterexample"
        ),
    )
    exp.add_argument(
        "--families",
        nargs="+",
        default=["gnp_sparse"],
        choices=_FAMILY_CHOICES,
        metavar="FAMILY",
        help=f"workload families ({', '.join(_FAMILY_CHOICES)})",
    )
    exp.add_argument("--sizes", nargs="+", type=int, default=[6, 8, 10])
    exp.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=list(range(8)),
        help="instance/schedule seeds (each is an independent schedule)",
    )
    exp.add_argument(
        "--schedulers",
        nargs="+",
        default=["lifo", "random", "starve"],
        choices=list(scheduler_names()),
        metavar="POLICY",
        help=f"scheduler policies to explore ({', '.join(scheduler_names())})",
    )
    exp.add_argument(
        "--churns",
        nargs="+",
        default=[NO_CHURN],
        choices=list(churn_names()),
        metavar="PLAN",
        help=f"named churn plan(s) to explore ({', '.join(churn_names())})",
    )
    exp.add_argument(
        "--delay",
        default="unit",
        choices=list(DELAY_NAMES),
        help="delay model for scheduler=none cells (inert under a policy)",
    )
    exp.add_argument(
        "--initial",
        default="random",
        choices=list(DISTRIBUTED_METHODS + CENTRALIZED_METHODS),
        help="startup spanning-tree construction for every cell",
    )
    exp.add_argument(
        "--tiny",
        action="store_true",
        help="use the fixed CI smoke grid instead of the axes above",
    )
    exp.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (verdicts are identical for any value)",
    )
    exp.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="probe result-cache directory (salted; safe to share a disk "
        "location with sweep caches)",
    )
    exp.add_argument(
        "--out",
        default="counterexamples",
        metavar="DIR",
        help="directory for shrunk counterexample artifacts",
    )
    exp.add_argument(
        "--exact-limit",
        type=int,
        default=12,
        help="largest n the oracle solves exactly",
    )
    exp.add_argument(
        "--max-probes",
        type=int,
        default=200,
        help="shrinker probe budget per counterexample",
    )
    exp.add_argument(
        "--max-shrink",
        type=int,
        default=5,
        help="shrink at most this many distinct failures",
    )
    _add_trace_args(exp)

    fz = sub.add_parser(
        "fuzz",
        help=(
            "coverage-guided schedule fuzzing: mutate replay prefixes + "
            "mid-run churn toward new behaviour; shrink any failure"
        ),
    )
    fz.add_argument(
        "--list",
        action="store_true",
        help=(
            "list mutation operators, churn plans, fallback policies "
            "and campaign defaults, then exit"
        ),
    )
    fz.add_argument(
        "--family",
        default="gnp_sparse",
        choices=_FAMILY_CHOICES,
        metavar="FAMILY",
        help=f"workload family ({', '.join(_FAMILY_CHOICES)})",
    )
    fz.add_argument("--sizes", nargs="+", type=int, default=[6, 8])
    fz.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=list(range(4)),
        help="round-zero instance seeds (mutations explore beyond them)",
    )
    fz.add_argument(
        "--fallbacks",
        nargs="+",
        default=["random", "lifo"],
        metavar="POLICY",
        help=(
            "fallback policies finishing a schedule past its replay "
            "prefix (registered policies except 'none')"
        ),
    )
    fz.add_argument(
        "--churns",
        nargs="+",
        default=["none", "restart_one", "restart_wave"],
        choices=list(churn_names()),
        metavar="PLAN",
        help=f"churn plans in play ({', '.join(churn_names())})",
    )
    fz.add_argument(
        "--budget",
        type=int,
        default=64,
        help="total cells probed before the campaign stops",
    )
    fz.add_argument(
        "--batch",
        type=int,
        default=8,
        help="cells per probe batch (one executor round-trip each)",
    )
    fz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fuzzer mutation seed (campaigns are deterministic in it)",
    )
    fz.add_argument(
        "--max-prefix",
        type=int,
        default=64,
        help="hard cap on mutated replay-prefix length",
    )
    fz.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (reports are byte-identical for any value)",
    )
    fz.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="probe result-cache directory (salted; safe to share a disk "
        "location with sweep caches)",
    )
    fz.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="seed the campaign from a directory of replay artifacts",
    )
    fz.add_argument(
        "--out",
        default="counterexamples",
        metavar="DIR",
        help="directory for shrunk counterexample artifacts",
    )
    fz.add_argument(
        "--exact-limit",
        type=int,
        default=12,
        help="largest n the oracle solves exactly",
    )
    fz.add_argument(
        "--max-shrink",
        type=int,
        default=4,
        help="shrink at most this many distinct failures",
    )
    fz.add_argument(
        "--shrink-probes",
        type=int,
        default=120,
        help="shrinker probe budget per counterexample",
    )
    _add_trace_args(fz)
    return parser


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "write a JSONL telemetry trace of this invocation to PATH "
            "(summarize it with `repro obs PATH`)"
        ),
    )
    p.add_argument(
        "--trace-deterministic",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "keep only the deterministic trace sections (the default); "
            "--no-trace-deterministic appends the segregated wall-clock "
            "and environment sections"
        ),
    )


def _common_axes(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        default="gnp_sparse",
        choices=_FAMILY_CHOICES,
        metavar="FAMILY",
        help=f"workload family ({', '.join(_FAMILY_CHOICES)})",
    )
    p.add_argument("--n", type=int, default=24, help="approximate node count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--initial",
        default="echo",
        choices=list(DISTRIBUTED_METHODS + CENTRALIZED_METHODS),
        help="startup spanning-tree construction",
    )
    p.add_argument("--mode", default="concurrent", choices=list(MODES))
    p.add_argument("--delay", default="unit", choices=list(DELAY_NAMES))
    p.add_argument(
        "--algorithm",
        default=DEFAULT_ALGORITHM,
        choices=list(algorithm_names()),
        metavar="NAME",
        help=f"distributed algorithm ({', '.join(algorithm_names())})",
    )
    p.add_argument(
        "--fault",
        default=NO_FAULT,
        choices=list(fault_names()),
        metavar="PLAN",
        help=f"named fault plan to inject ({', '.join(fault_names())})",
    )
    p.add_argument(
        "--scheduler",
        default=NO_SCHEDULER,
        choices=list(scheduler_names()),
        metavar="POLICY",
        help=(
            "adversarial scheduler policy ordering deliveries "
            f"({', '.join(scheduler_names())}; bypasses --delay)"
        ),
    )
    p.add_argument(
        "--churn",
        default=NO_CHURN,
        choices=list(churn_names()),
        metavar="PLAN",
        help=(
            "named mid-run churn plan — crash-restart / link-flap "
            f"({', '.join(churn_names())})"
        ),
    )
    p.add_argument(
        "--causal-out",
        default=None,
        metavar="PATH",
        help=(
            "capture per-delivery causal provenance and write the "
            "artifact to PATH (analyze it with `repro inspect PATH`)"
        ),
    )


def _run_once(args: argparse.Namespace, causal=None):
    graph = make_family(args.family, args.n, seed=args.seed)
    startup = build_spanning_tree(graph, method=args.initial, seed=args.seed)
    plan = merge_plans(
        churn_plan_from_name(args.churn, graph.n, args.seed),
        fault_plan_from_name(args.fault, graph.n, args.seed),
    )
    result = get_algorithm(args.algorithm).run(
        graph,
        startup.tree,
        mode=args.mode,
        seed=args.seed,
        delay=delay_model_from_name(args.delay),
        faults=plan or None,
        scheduler=scheduler_from_name(args.scheduler),
        causal=causal,
    )
    return result


def _flattens(args: argparse.Namespace, exc: Exception) -> bool:
    """Is this failure the expected loud stall of the requested fault /
    churn plan (exit 1 + message) rather than a bug (propagate)?
    Mirrors :meth:`repro.analysis.batch.CellTemplate.flattens`."""
    if args.fault != NO_FAULT:
        return True
    return args.churn != NO_CHURN and isinstance(
        exc, (TerminationError, StallError)
    )


def _stall_message(args: argparse.Namespace, exc: Exception) -> str:
    if args.fault != NO_FAULT:
        return (
            f"run stalled under fault plan {args.fault!r} "
            f"(the paper assumes reliable channels and non-crashing "
            f"processors): {exc}"
        )
    return (
        f"run stalled under churn plan {args.churn!r} "
        f"(a stranding plan stalls loudly; corruption would have "
        f"raised): {exc}"
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    if trace_out is None:
        return _dispatch(args)
    # telemetry wraps the whole dispatch: everything the command stack
    # observes lands in one trace artifact. Written even on a non-zero
    # exit — a failing run's trace is the one worth reading.
    with capture(command=args.command) as t:
        rc = _dispatch(args)
    env = {
        "jobs": getattr(args, "jobs", 1),
        "cache": bool(getattr(args, "cache", None)),
        "exit": rc,
    }
    path = write_trace(
        trace_out, t, deterministic=args.trace_deterministic, env=env
    )
    print(f"trace: {path}", file=sys.stderr)
    return rc


def _write_causal_artifact(args: argparse.Namespace, cap) -> None:
    """Write the run's causal artifact (also on a loud stall — a failing
    run's forensics are the ones worth reading)."""
    if cap is None:
        return
    path = write_causal(args.causal_out, cap, command=args.command)
    print(f"causal: {path}", file=sys.stderr)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "obs":
        try:
            if args.diff is not None:
                lines, diverged = diff_traces(
                    read_trace(args.diff[0]), read_trace(args.diff[1])
                )
                for line in lines:
                    print(line)
                return 1 if diverged else 0
            if args.trace is None:
                print("obs: give a trace PATH or --diff A B", file=sys.stderr)
                return 2
            docs = read_trace(args.trace)
        except AnalysisError as exc:
            print(f"obs: {exc}", file=sys.stderr)
            return 2
        print(summarize(docs))
        return 0

    if args.command == "inspect":
        return _inspect(args)

    if args.command == "families":
        from .perf.spec import SUITES
        from .scenarios.library import SCENARIOS

        sections = [
            ("graph families", sorted(FAMILIES)),
            ("delay models", list(DELAY_NAMES)),
            ("algorithms", list(algorithm_names())),
            ("fault plans", list(fault_names())),
            ("scheduler policies", list(scheduler_names())),
            ("churn plans", list(churn_names())),
            ("scenarios", sorted(SCENARIOS)),
            ("bench suites", list(SUITES)),
        ]
        for i, (title, names) in enumerate(sections):
            if i:
                print()
            print(f"{title}:")
            for name in names:
                print(f"  {name}")
        return 0

    if args.command == "exact":
        graph = make_family(args.family, args.n, seed=args.seed)
        d = optimal_degree(graph)
        print(f"{args.family} n={graph.n} m={graph.m}: optimal degree = {d}")
        return 0

    if args.command == "run":
        cap = CausalCapture() if args.causal_out else None
        try:
            result = _run_once(args, cap)
        except (TerminationError, ProtocolError) as exc:
            if not _flattens(args, exc):
                raise
            _write_causal_artifact(args, cap)
            print(_stall_message(args, exc), file=sys.stderr)
            return 1
        _write_causal_artifact(args, cap)
        print(result.summary())
        if args.show_tree:
            print()
            print(render_tree(result.final_tree, max_depth=6))
            print()
            print(render_degree_histogram(result.final_tree))
        return 0

    if args.command == "certify":
        cap = CausalCapture() if args.causal_out else None
        try:
            result = _run_once(args, cap)
        except (TerminationError, ProtocolError) as exc:
            if not _flattens(args, exc):
                raise
            _write_causal_artifact(args, cap)
            print(_stall_message(args, exc), file=sys.stderr)
            return 1
        _write_causal_artifact(args, cap)
        print(result.summary())
        print()
        print(certify_run(result).summary())
        return 0

    if args.command == "experiment":
        from .analysis.experiments import run_experiment

        text, _payload = run_experiment(args.name, scale=args.scale)
        print(text)
        return 0

    if args.command == "compare":
        graph = make_family(args.family, args.n, seed=args.seed)
        startup = build_spanning_tree(graph, method=args.initial, seed=args.seed)
        names = tuple(args.algorithm or algorithm_names())
        table = Table(
            ["algorithm", "k0", "k*", "rounds", "msgs", "bits", "time"],
            title=(
                f"algorithm comparison — {args.family} n={graph.n} "
                f"m={graph.m} seed={args.seed}"
            ),
        )
        plan = merge_plans(
            churn_plan_from_name(args.churn, graph.n, args.seed),
            fault_plan_from_name(args.fault, graph.n, args.seed),
        )
        for name in names:
            try:
                result = get_algorithm(name).run(
                    graph,
                    startup.tree,
                    seed=args.seed,
                    delay=delay_model_from_name(args.delay),
                    faults=plan or None,
                    scheduler=scheduler_from_name(args.scheduler),
                )
            except (TerminationError, ProtocolError) as exc:
                if not _flattens(args, exc):
                    raise
                k0 = startup.tree.max_degree()
                table.add(name, k0, "stalled", "—", "—", "—", "—")
                continue
            table.add(
                name,
                result.initial_degree,
                result.final_degree,
                result.num_rounds,
                result.messages,
                result.report.total_bits,
                result.causal_time,
            )
        print(table.render())
        if args.exact:
            print(f"exact optimum: Δ* = {optimal_degree(graph)}")
        return 0

    if args.command == "sweep":
        spec = SweepSpec(
            families=tuple(args.families),
            sizes=tuple(args.sizes),
            seeds=tuple(args.seeds),
            initial_methods=(args.initial,),
            modes=(args.mode,),
            delays=(args.delay,),
            algorithms=tuple(args.algorithm),
            faults=tuple(args.fault),
            schedulers=tuple(args.scheduler),
            churns=tuple(args.churn),
        )
        cache = ResultCache(args.cache) if args.cache else None
        records = run_sweep(spec, jobs=args.jobs, cache=cache)
        table = Table(
            [
                "algorithm", "family", "n", "m", "seed", "fault", "sched",
                "churn", "k0", "k*", "rounds", "msgs", "time",
            ],
            title="MDegST sweep",
        )
        for r in records:
            table.add(
                r.algorithm, r.family, r.n, r.m, r.seed, r.fault,
                r.scheduler, r.churn,
                r.k_initial,
                r.k_final if r.ok else r.outcome,
                r.rounds, r.messages, r.causal_time,
            )
        print(table.render())
        if cache is not None:
            print(
                f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
                f"[{args.cache}]",
                file=sys.stderr,
            )
        return 0

    if args.command == "campaign":
        return _campaign(args)

    if args.command == "bench":
        return _bench(args)

    if args.command == "cache":
        return _cache(args)

    if args.command == "explore":
        return _explore(args)

    if args.command == "fuzz":
        return _fuzz(args)

    return 1  # pragma: no cover - argparse enforces commands


def _inspect(args: argparse.Namespace) -> int:
    """``repro inspect ARTIFACT``: forensics over a causal artifact."""
    import json

    from .obs.causal import (
        attribution,
        critical_path,
        read_causal,
        render_attribution,
        render_critical_path,
        render_summary,
        write_timeline,
    )

    try:
        header, rows = read_causal(args.artifact)
        chain = critical_path(rows) if (args.critical_path or args.json) else []
        if args.timeline:
            timeline_path = write_timeline(args.timeline, header, rows)
    except AnalysisError as exc:
        print(f"inspect: {exc}", file=sys.stderr)
        return 2

    if args.json:
        payload: dict = {"summary": header.get("summary", {})}
        if args.attribution:
            payload["attribution"] = attribution(header)
        if args.critical_path:
            payload["critical_path"] = chain
        if args.timeline:
            payload["timeline"] = str(timeline_path)
        print(json.dumps(payload, sort_keys=True))
        return 0

    for line in render_summary(header):
        print(line)
    if args.attribution:
        print()
        for line in render_attribution(header):
            print(line)
    if args.critical_path:
        print()
        for line in render_critical_path(rows):
            print(line)
    if args.timeline:
        print(f"timeline: {timeline_path}", file=sys.stderr)
    return 0


def _campaign(args: argparse.Namespace) -> int:
    from .scenarios import (
        builtin_campaign,
        load_campaign,
        render_markdown,
        run_campaign,
        scenario_names,
        write_report,
    )
    from .scenarios.library import SCENARIOS

    if args.list:
        width = max(len(name) for name in scenario_names())
        print("built-in scenarios:")
        print()
        for name in scenario_names():
            sc = SCENARIOS[name]
            print(f"  {name.ljust(width)}  {sc.num_cells:>3} cells  {sc.description}")
        print()
        print(
            "run with: python -m repro campaign <name> [--jobs N] "
            "[--cache DIR] [--out DIR]"
        )
        return 0

    if bool(args.scenarios) == bool(args.file):
        print(
            "campaign: give built-in scenario name(s) or --file PATH "
            "(one of the two); --list shows the library",
            file=sys.stderr,
        )
        return 2

    try:
        campaign = (
            load_campaign(args.file)
            if args.file
            else builtin_campaign(args.scenarios)
        )
    except AnalysisError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    if args.tiny:
        campaign = campaign.tiny()
    cache = ResultCache(args.cache) if args.cache else None
    result = run_campaign(campaign, jobs=args.jobs, cache=cache)
    if args.out:
        # one aggregation/render pass: stdout shows exactly the artifact
        md_path, json_path = write_report(result, args.out)
        print(md_path.read_text(encoding="utf-8"), end="")
        print(f"report: {md_path} + {json_path}", file=sys.stderr)
    else:
        print(render_markdown(result), end="")
    if cache is not None:
        print(
            f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"[{args.cache}]",
            file=sys.stderr,
        )
    return 0


def _cache(args: argparse.Namespace) -> int:
    """``repro cache DIR --stats/--verify/--prune``."""
    if args.json and not args.stats:
        print("cache: --json only applies to --stats", file=sys.stderr)
        return 2
    cache = ResultCache(args.dir)

    if args.stats:
        s = cache.stats()
        if args.json:
            import json

            print(json.dumps(s, sort_keys=True))
            return 0
        print(
            f"cache {args.dir}: {s['entries']} packed entr(ies) in "
            f"{s['segments']} segment(s) ({s['bytes']} bytes), "
            f"schema v{s['schema']}"
        )
        return 0

    if args.verify:
        problems = cache.verify()
        if problems:
            for problem in problems:
                print(f"  {problem}")
            print(f"cache verify: FAIL ({len(problems)} problem(s))")
            return 1
        print(f"cache verify: OK ({cache.stats()['entries']} packed entr(ies))")
        return 0

    # argparse guarantees exactly one action; the remaining one:
    dropped = cache.prune()
    print(f"cache prune: dropped {dropped} stale-schema entr(ies)")
    return 0


def _bench_profile(args: argparse.Namespace) -> int:
    """``bench --profile NAME``: one warm-up call, one profiled call,
    the cProfile hot-function table — where the events actually go."""
    import cProfile
    import io
    import pstats

    from .perf import get_bench

    try:
        bench = get_bench(args.profile)
    except AnalysisError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if bench.kind == "micro":
        kernel = bench.micro()
    else:
        from .analysis.executor import SerialExecutor

        cells = bench.cells()

        def kernel():
            return SerialExecutor().run(cells)

    kernel()  # warm-up: codec/dispatch registration, bytecode warmup
    profiler = cProfile.Profile()
    with capture(command="bench --profile") as t:
        with t.span("bench.profile", bench=bench.name, kind=bench.kind):
            profiler.enable()
            kernel()
            profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats("cumulative").print_stats(args.profile_lines)
    print(
        f"profile: bench '{bench.name}' ({bench.kind}), "
        "one profiled call after one warm-up call"
    )
    print(out.getvalue().rstrip())
    # the span view of the same call: ties the hot functions above to
    # the spans/counters the telemetry layer attributes them to
    import json

    docs = [json.loads(line) for line in trace_lines(t, deterministic=False)]
    print()
    print(summarize(docs))
    return 0


def _bench(args: argparse.Namespace) -> int:
    import hashlib

    from .perf import (
        SUITE_DESCRIPTIONS,
        SUITES,
        compare_baselines,
        latest_baseline_path,
        load_baseline,
        run_suite,
        save_baseline,
        suite_benches,
        work_bytes,
    )

    if args.list:
        benches = suite_benches("full")
        width = max(len(b.name) for b in benches)
        print("bench suites:")
        print()
        for suite in SUITES:
            members = suite_benches(suite)
            print(
                f"  {suite.ljust(5)}  {len(members):>2} benches  "
                f"{SUITE_DESCRIPTIONS[suite]}"
            )
        print()
        print("benches (suites in brackets):")
        print()
        for bench in benches:
            tags = ",".join(s for s in SUITES[:-1] if bench.in_suite(s)) or "full"
            print(
                f"  {bench.name.ljust(width)}  {bench.kind:5}  "
                f"[{tags}]  {bench.description}"
            )
        print()
        print(
            "run with: python -m repro bench --suite smoke "
            "[--out PATH] [--compare BASELINE --gate]"
        )
        return 0

    if args.profile is not None:
        return _bench_profile(args)

    # resolve gate inputs BEFORE the (potentially long) suite run: a bad
    # tolerance or a missing baseline must fail fast, and the default
    # "newest BENCH_*.json in the cwd" must never resolve to the file
    # --out is about to write (that would gate the run against itself)
    if args.tolerance < 0:
        print(
            f"bench: tolerance must be >= 0, got {args.tolerance}",
            file=sys.stderr,
        )
        return 2
    compare_path = args.compare
    if compare_path is None and args.gate:
        latest = latest_baseline_path(".")
        if latest is None:
            print(
                "bench: --gate needs a baseline; none given via --compare "
                "and no BENCH_*.json found in the cwd",
                file=sys.stderr,
            )
            return 2
        compare_path = str(latest)

    try:
        fresh = run_suite(
            args.suite,
            jobs=args.jobs,
            cache=ResultCache(args.cache) if args.cache else None,
            repeats=args.repeats,
            warmup=args.warmup,
            notes=args.note,
        )
    except AnalysisError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    table = Table(
        ["bench", "kind", "best [ms]", "median [ms]", "events/s", "work"],
        title=f"bench suite '{args.suite}' — {len(fresh.results)} benches",
    )
    for r in fresh.results:
        rate = r.derived.get("events_per_sec") or r.derived.get("ops_per_sec")
        headline = (
            f"events={r.work['events']}"
            if "events" in r.work
            else f"ops={r.work.get('ops', '-')}"
        )
        table.add(
            r.name,
            r.kind,
            round(r.timing["best"] * 1000, 2),
            round(r.timing["median"] * 1000, 2),
            f"{rate:,.0f}" if rate else "—",
            headline,
        )
    print(table.render())
    digest = hashlib.sha256(work_bytes(fresh)).hexdigest()
    print(f"work fingerprint: {digest[:16]} (exact-gated section)")

    if args.out:
        path = save_baseline(fresh, args.out)
        print(f"baseline: {path}", file=sys.stderr)

    if compare_path is None:
        return 0

    try:
        baseline = load_baseline(compare_path)
    except AnalysisError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if baseline.suite != fresh.suite:
        print(
            f"bench: baseline {compare_path} records suite "
            f"{baseline.suite!r}, not {fresh.suite!r}",
            file=sys.stderr,
        )
        return 2
    gate_time = {"auto": None, "on": True, "off": False}[args.gate_time]
    comparison = compare_baselines(
        baseline, fresh, tolerance=args.tolerance, gate_time=gate_time
    )
    print()
    print(f"baseline: {compare_path} (rev {baseline.git_rev})")
    print(comparison.render())
    if args.gate and not comparison.ok:
        return 1
    return 0


def _explore(args: argparse.Namespace) -> int:
    from .exploration import (
        explore,
        exploration_grid,
        shrink,
        tiny_grid,
        write_artifact,
    )

    if args.tiny:
        grid = tiny_grid()
    else:
        grid = exploration_grid(
            families=tuple(args.families),
            sizes=tuple(args.sizes),
            seeds=tuple(args.seeds),
            schedulers=tuple(args.schedulers),
            delays=(args.delay,),
            churns=tuple(args.churns),
            initial_method=args.initial,
        )
    results = explore(
        grid, jobs=args.jobs, cache=args.cache, exact_limit=args.exact_limit
    )
    probes = sum(len(r.records) for r in results)
    failures = [r for r in results if not r.ok]
    print(
        f"explored {len(results)} cells ({probes} probe runs): "
        f"{len(failures)} counterexample(s)"
    )
    if not failures:
        return 0
    for result in failures[: args.max_shrink]:
        outcome = shrink(
            result.cell,
            exact_limit=args.exact_limit,
            max_probes=args.max_probes,
        )
        path = write_artifact(
            args.out,
            outcome.result,
            note=f"found by repro explore; shrunk from {result.cell.canonical()}",
        )
        print()
        print(f"counterexample: {result.cell.canonical()}")
        print(
            f"  shrunk ({outcome.probes} probes) -> "
            f"{outcome.cell.canonical()}"
        )
        for code, detail in zip(
            outcome.result.verdict.failures, outcome.result.verdict.details
        ):
            print(f"  [{code}] {detail}")
        print(f"  artifact: {path}")
    skipped = len(failures) - min(len(failures), args.max_shrink)
    if skipped:
        print(f"\n({skipped} further failing cell(s) not shrunk; "
              f"raise --max-shrink to cover them)")
    return 1


def _fuzz(args: argparse.Namespace) -> int:
    from .exploration import (
        MUTATION_OPS,
        FuzzSpec,
        load_corpus_cells,
        run_fuzz,
        write_artifact,
    )

    if args.list:
        spec = FuzzSpec()
        print("mutation operators:")
        for name, desc in MUTATION_OPS.items():
            print(f"  {name:<12}{desc}")
        print()
        print("churn plans:")
        for name in churn_names():
            print(f"  {name}")
        print()
        print("fallback policies:")
        for name in scheduler_names():
            if name not in (NO_SCHEDULER, "replay"):
                print(f"  {name}")
        print()
        print(
            f"defaults: budget={spec.budget} batch={spec.batch} "
            f"max_prefix={spec.max_prefix} family={spec.family} "
            f"sizes={list(spec.sizes)} seeds={list(spec.seeds)} "
            f"fallbacks={list(spec.fallbacks)} churns={list(spec.churns)}"
        )
        return 0

    spec = FuzzSpec(
        family=args.family,
        sizes=tuple(args.sizes),
        seeds=tuple(args.seeds),
        fallbacks=tuple(args.fallbacks),
        churns=tuple(args.churns),
        seed=args.seed,
        budget=args.budget,
        batch=args.batch,
        max_prefix=args.max_prefix,
        exact_limit=args.exact_limit,
    )
    seed_corpus = load_corpus_cells(args.corpus) if args.corpus else ()
    report = run_fuzz(
        spec,
        jobs=args.jobs,
        cache=args.cache,
        seed_corpus=seed_corpus,
        max_shrink=args.max_shrink,
        shrink_probes=args.shrink_probes,
    )
    print(
        f"fuzzed {report.probed} cells in {report.rounds} round(s): "
        f"{report.coverage} coverage bucket(s), "
        f"{len(report.corpus)} corpus entries, "
        f"{len(report.failures)} failure(s)"
    )
    print(f"coverage digest: {report.coverage_digest}")
    print(f"corpus digest:   {report.corpus_digest}")
    if report.ok:
        return 0
    for outcome in report.shrunk:
        path = write_artifact(
            args.out,
            outcome.result,
            note=(
                "found by repro fuzz; shrunk from "
                f"{outcome.original.canonical()}"
            ),
        )
        print()
        print(f"counterexample: {outcome.original.canonical()}")
        print(
            f"  shrunk ({outcome.probes} probes) -> "
            f"{outcome.cell.canonical()}"
        )
        for code, detail in zip(
            outcome.result.verdict.failures, outcome.result.verdict.details
        ):
            print(f"  [{code}] {detail}")
        print(f"  artifact: {path}")
    skipped = len(report.failures) - len(report.shrunk)
    if skipped:
        print(f"\n({skipped} further failing cell(s) not shrunk; "
              f"raise --max-shrink to cover them)")
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
