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
``cache``     inspect / verify / prune a result cache
``obs``       summarize a telemetry trace, or diff two (``--diff A B``)
``inspect``   causal forensics over a ``--causal-out`` artifact:
              critical path, per-primitive attribution, timeline export
``exact``     ground-truth Δ* for a small instance
``families``  list every run axis's registered names, the built-in
              scenarios and the bench suites
``certify``   run + certification against the paper's claims

Every run-axis flag (``--family`` … ``--churn``) is generated from
:data:`repro.analysis.axes.AXES` by :func:`_add_axes`.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterable

from .algorithms import ALGORITHMS
from .analysis.axes import AXES, AXIS, FALLBACK, Axis
from .analysis.batch import CellTemplate
from .analysis.cache import ResultCache
from .analysis.executor import RunSpec, check_jobs
from .analysis.harness import SweepSpec, run_sweep
from .analysis.tables import Table
from .errors import AnalysisError, UnknownNameError, lookup
from .graphs.generators import make_family
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
from .sim.faults import NO_FAULT
from .sim.provenance import CausalCapture
from .verify.certification import certify_run
from .viz.ascii_tree import render_degree_histogram, render_tree

__all__ = ["main", "build_parser"]

#: every axis-table spelling (both of each axis, and the fuzz fallbacks)
_SPELLINGS: dict[str, Axis] = {
    spelling: axis
    for axis in (*AXES, FALLBACK)
    for spelling in (axis.flag, axis.flags)
}

#: the other name tables ``repro families`` lists after the run axes
_EXTRA_LISTINGS = ["scenarios", "bench suites"]


def build_parser() -> argparse.ArgumentParser:
    # the perf package builds its bench table at import; pulled in
    # here (not at module top) so plain `repro run`-style invocations
    # never pay for it — the rest of the perf stack stays behind the
    # lazy import in _bench. The exploration specs are the explore/fuzz
    # flags' targets (their defaults are the flags' defaults).
    from .exploration import FuzzSpec, exploration_grid
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
    _run_args(run_p)
    run_p.add_argument("--show-tree", action="store_true", help="render the final tree")

    sweep_p = sub.add_parser("sweep", help="run a sweep and print a table")
    _add_axes(
        sweep_p,
        SweepSpec,
        "families sizes seeds initial mode delay algorithm+ fault+ "
        "scheduler+ churn+",
    )
    sweep_p.add_argument(
        "--jobs",
        type=_JOBS,
        default=1,
        help="worker processes (records stay in deterministic sweep order)",
    )
    sweep_p.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="result-cache directory; completed cells are not re-run",
    )
    _add_trace_args(sweep_p)

    compare_p = sub.add_parser(
        "compare",
        help="run registered algorithms head-to-head on one instance",
    )
    _add_axes(
        compare_p,
        RunSpec,
        "family n seed initial delay fault scheduler churn algorithm+",
        algorithms=None,  # all registered
    )
    compare_p.add_argument(
        "--exact",
        action="store_true",
        help="also solve the instance exactly (small n only)",
    )

    exact_p = sub.add_parser("exact", help="ground-truth optimal degree (small n)")
    _add_axes(exact_p, RunSpec, "family n seed", n=10)

    sub.add_parser(
        "families",
        help="list "
        + ", ".join([a.title for a in AXES if a.names] + _EXTRA_LISTINGS),
    )

    cert_p = sub.add_parser("certify", help="run + certify against the claims")
    _run_args(cert_p)

    exp_p = sub.add_parser(
        "experiment", help="regenerate a paper table (t1..t9)"
    )
    exp_p.add_argument("name", help="table id, e.g. t1")

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
        type=_JOBS,
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
        "--out",
        default=None,
        metavar="PATH",
        help="write the fresh baseline as JSON (e.g. BENCH_0005.json)",
    )
    bench_p.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE|REV",
        help=(
            "a BENCH_*.json file: compare the fresh run's work section "
            "exactly (default with --gate: the newest BENCH_*.json in "
            "the cwd); a git revision: time the suite at REV against "
            "this checkout in ten alternating subprocess pairs and judge "
            "each bench's speed (only --suite, --repeats, --warmup and "
            "--gate apply; --out and --note are rejected)"
        ),
    )
    bench_p.add_argument(
        "--gate",
        action="store_true",
        help=(
            "exit 1 if a work metric differs from the file, or if a "
            "bench is judged slower than the revision"
        ),
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
        help="inspect and maintain a result cache (one SQLite file under DIR)",
    )
    cache_p.add_argument("dir", metavar="DIR", help="result-cache directory")
    cache_action = cache_p.add_mutually_exclusive_group(required=True)
    cache_action.add_argument(
        "--stats",
        action="store_true",
        help="print entry/byte counts and the active schema version",
    )
    cache_action.add_argument(
        "--verify",
        action="store_true",
        help="check the database and that every entry's key matches its payload; "
        "exit 1 listing any problems",
    )
    cache_action.add_argument(
        "--prune",
        action="store_true",
        help="drop entries recorded under a stale schema version",
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
    _add_axes(
        exp,
        exploration_grid,
        "families sizes seeds schedulers churns delay initial",
    )
    exp.add_argument(
        "--tiny",
        action="store_true",
        help="use the fixed CI smoke grid instead of the axes above",
    )
    exp.add_argument(
        "--jobs",
        type=_JOBS,
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
        # --seed (the mutation seed, added below) takes that spelling
        # from the --seeds alias
        conflict_handler="resolve",
    )
    fz.add_argument(
        "--list",
        action="store_true",
        help=(
            "list mutation operators, churn plans, fallback policies "
            "and campaign defaults, then exit"
        ),
    )
    _add_axes(fz, FuzzSpec, "family sizes seeds fallbacks churns")
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
        type=_JOBS,
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


def _arg_type(
    check: Callable[[Any], Any], kind: type = str, wrap: bool = False
) -> Callable[[str], Any]:
    """An argparse ``type``: convert with *kind*, validate with *check*,
    and with *wrap* return a 1-tuple. An :class:`AnalysisError` becomes
    a usage error (exit 2) carrying its message, which names the valid
    values."""

    def parse(text: str) -> Any:
        try:
            value = check(kind(text))
        except AnalysisError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return (value,) if wrap else value

    parse.__name__ = kind.__name__  # argparse says "invalid int value: 'x'"
    return parse


_JOBS = _arg_type(check_jobs, int)


def _add_axes(
    p: argparse.ArgumentParser, target: Callable, spellings: str, **defaults: Any
) -> None:
    """Generate run-axis flags on *p* from the axis table.

    *spellings* lists the flags by their table spelling: a singular one
    (``churn``) takes one value, a plural one (``churns``) or a singular
    one marked ``+`` takes one or more. The axis's other spelling is an
    alias with the same dest. Every value goes through the table's
    ``check``, so a bad one is a usage error.

    *target* is what the command calls with :func:`_target_kwargs`. A
    one-value flag lands on the target's singular field when it has one,
    else on its plural field as a 1-tuple; a many-value flag lands on
    the plural field. The default is the target's own for that field,
    unless *defaults* overrides it, else the table's.
    """
    params = inspect.signature(target).parameters
    for token in spellings.split():
        spelling = token.rstrip("+")
        axis = _SPELLINGS[spelling]
        many = token.endswith("+") or spelling == axis.flags
        dest = axis.field if not many and axis.field in params else axis.plural
        param = params.get(dest)
        if dest in defaults:
            default = defaults[dest]
        elif param is not None and param.default is not param.empty:
            default = param.default
        else:
            default = axis.default
        listing = f" ({', '.join(axis.names())}{axis.hint})" if axis.names else ""
        p.add_argument(
            f"--{spelling}",
            f"--{axis.flags if spelling == axis.flag else axis.flag}",
            dest=dest,
            nargs="+" if many else None,
            type=_arg_type(
                axis.check,
                str if axis.names else int,
                wrap=not many and dest == axis.plural,
            ),
            default=default,
            metavar=axis.flag.upper(),
            help=axis.help + listing,
        )


def _target_kwargs(args: argparse.Namespace, target: Callable) -> dict[str, Any]:
    """The parsed values named like *target*'s parameters: the flags
    :func:`_add_axes` generated for it, plus same-named plain options."""
    params = inspect.signature(target).parameters
    return {name: getattr(args, name) for name in params if hasattr(args, name)}


def _run_args(p: argparse.ArgumentParser) -> None:
    """``run`` / ``certify``: one value on every axis, plus the artifact."""
    _add_axes(p, RunSpec, " ".join(axis.flag for axis in AXES))
    p.add_argument(
        "--causal-out",
        default=None,
        metavar="PATH",
        help=(
            "capture per-delivery causal provenance and write the "
            "artifact to PATH (analyze it with `repro inspect PATH`)"
        ),
    )


def _run_cell(args: argparse.Namespace):
    """Drive the ``run`` / ``certify`` cell. A loud stall of the
    requested fault or churn plan is reported and gives ``None``; the
    causal artifact is written either way."""
    spec = RunSpec(**_target_kwargs(args, RunSpec))
    cap = CausalCapture() if args.causal_out else None
    _, _, _, outcome = CellTemplate(spec).attempt(spec.seed, cap)
    _write_causal_artifact(args, cap)
    if isinstance(outcome, Exception):
        print(_stall_message(spec, outcome), file=sys.stderr)
        return None
    return outcome


def _stall_message(spec: RunSpec, exc: Exception) -> str:
    if spec.fault != NO_FAULT:
        return (
            f"run stalled under fault plan {spec.fault!r} "
            f"(the paper assumes reliable channels and non-crashing "
            f"processors): {exc}"
        )
    return (
        f"run stalled under churn plan {spec.churn!r} "
        f"(a stranding plan stalls loudly; corruption would have "
        f"raised): {exc}"
    )


def main(argv: list[str] | None = None) -> int:
    try:
        rc = _main(argv)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:  # the reader left early: `repro families | head -1`
        # devnull takes the rest, so the exit-time flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv: list[str] | None) -> int:
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

        sections = [(a.title, a.names()) for a in AXES if a.names]
        sections += zip(_EXTRA_LISTINGS, (sorted(SCENARIOS), SUITES))
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

    if args.command in ("run", "certify"):
        result = _run_cell(args)
        if result is None:
            return 1
        print(result.summary())
        if args.command == "certify":
            print()
            print(certify_run(result))
        elif args.show_tree:
            print()
            print(render_tree(result.final_tree, max_depth=6))
            print()
            print(render_degree_histogram(result.final_tree))
        return 0

    if args.command == "experiment":
        from .analysis.experiments import run_experiment

        text, _payload = run_experiment(args.name)
        print(text)
        return 0

    if args.command == "compare":
        spec = RunSpec(**_target_kwargs(args, RunSpec))
        records = [
            CellTemplate(replace(spec, algorithm=name)).run(spec.seed)
            for name in args.algorithms or sorted(ALGORITHMS)
        ]
        table = Table(
            ["algorithm", "k0", "k*", "rounds", "msgs", "bits", "time"],
            title=(
                f"algorithm comparison — {spec.family} n={records[0].n} "
                f"m={records[0].m} seed={spec.seed}"
            ),
        )
        for r in records:
            if r.ok:
                table.add(
                    r.algorithm, r.k_initial, r.k_final, r.rounds,
                    r.messages, r.bits, r.causal_time,
                )
            else:
                table.add(r.algorithm, r.k_initial, "stalled", "—", "—", "—", "—")
        print(table.render())
        if args.exact:
            graph = make_family(spec.family, spec.n, seed=spec.seed)
            print(f"exact optimum: Δ* = {optimal_degree(graph)}")
        return 0

    if args.command == "sweep":
        spec = SweepSpec(**_target_kwargs(args, SweepSpec))
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
        write_report,
    )
    from .scenarios.library import SCENARIOS

    if args.list:
        width = max(len(name) for name in SCENARIOS)
        print("built-in scenarios:")
        print()
        for name in sorted(SCENARIOS):
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
    except (AnalysisError, UnknownNameError) as exc:
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
    if not Path(args.dir).is_dir():
        print(f"cache: error: no cache directory {args.dir}", file=sys.stderr)
        return 2
    cache = ResultCache(args.dir)

    if args.stats:
        s = cache.stats()
        if args.json:
            import json

            print(json.dumps(s, sort_keys=True))
            return 0
        print(
            f"cache {args.dir}: {s['entries']} entr(ies) "
            f"({s['bytes']} bytes), schema v{s['schema']}"
        )
        return 0

    if args.verify:
        problems = cache.verify()
        if problems:
            for problem in problems:
                print(f"  {problem}")
            print(f"cache verify: FAIL ({len(problems)} problem(s))")
            return 1
        print(f"cache verify: OK ({len(cache)} entr(ies))")
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

    from .perf import BENCHES

    try:
        bench = lookup(BENCHES, args.profile, "bench")
    except UnknownNameError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    kernel = bench.kernel()  # the closure the suite times
    kernel()  # warm-up: codec/dispatch registration, bytecode warmup
    profiler = cProfile.Profile()
    with capture(command="bench --profile") as t:
        with t.span("bench.profile", bench=bench.name):
            profiler.enable()
            kernel()
            profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats("cumulative").print_stats(args.profile_lines)
    print(
        f"profile: bench '{bench.name}', "
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
        SUITES,
        compare_baselines,
        latest_baseline_path,
        load_baseline,
        resolve_revision,
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
                f"{SUITES[suite]}"
            )
        print()
        print("benches (suites in brackets):")
        print()
        for bench in benches:
            tags = ",".join(s for s in SUITES if s in bench.suites) or "full"
            print(
                f"  {bench.name.ljust(width)}  [{tags}]  {bench.description}"
            )
        print()
        print(
            "run with: python -m repro bench --suite smoke "
            "[--out PATH] [--compare BASELINE|REV --gate]"
        )
        return 0

    if args.profile is not None:
        return _bench_profile(args)

    # resolve gate inputs BEFORE the (potentially long) suite run: a
    # missing baseline must fail fast, and the default "newest
    # BENCH_*.json in the cwd" must never resolve to the file --out is
    # about to write (that would gate the run against itself)
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
    elif compare_path is not None and not Path(compare_path).is_file():
        rev = resolve_revision(compare_path)
        if rev is None:
            print(
                f"bench: --compare {compare_path!r} is no such baseline "
                "file and no git revision of the checkout holding the cwd",
                file=sys.stderr,
            )
            return 2
        return _bench_pairs(args, rev)

    try:
        fresh = run_suite(
            args.suite,
            repeats=args.repeats,
            warmup=args.warmup,
            notes=args.note,
        )
    except AnalysisError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    table = Table(
        ["bench", "best [ms]", "median [ms]", "events/s", "work"],
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
    comparison = compare_baselines(baseline, fresh)
    print()
    print(f"baseline: {compare_path} (rev {baseline.git_rev})")
    print(comparison.render())
    if args.gate and not comparison.ok:
        return 1
    return 0


def _bench_pairs(args: argparse.Namespace, rev: str) -> int:
    """``bench --compare REV``: the suite at *rev* (A) against this
    checkout (B) in alternating subprocess pairs, one speed verdict per
    bench."""
    from .perf import PAIRS, compare_pairs, run_pairs

    ignored = [flag for flag, value in (("--out", args.out), ("--note", args.note)) if value]
    if ignored:
        print(
            f"bench: {' and '.join(ignored)} cannot be used with --compare REV: "
            "the paired runs record no baseline",
            file=sys.stderr,
        )
        return 2
    print(
        f"bench: timing suite '{args.suite}' at {args.compare} "
        f"({rev[:12]}, side A) against this checkout (side B) in {PAIRS} "
        "alternating pairs",
        file=sys.stderr,
    )
    try:
        a_runs, b_runs = run_pairs(
            rev, args.suite, repeats=args.repeats, warmup=args.warmup
        )
    except AnalysisError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    comparison = compare_pairs(a_runs, b_runs)
    print(comparison.render())
    if args.gate and comparison.slower:
        return 1
    return 0


def _explore(args: argparse.Namespace) -> int:
    from .exploration import explore, exploration_grid, shrink, tiny_grid

    if args.tiny:
        grid = tiny_grid()
    else:
        grid = exploration_grid(**_target_kwargs(args, exploration_grid))
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
    outcomes = (
        shrink(result.cell, exact_limit=args.exact_limit, max_probes=args.max_probes)
        for result in failures[: args.max_shrink]
    )
    return _print_counterexamples(args.out, "explore", outcomes, len(failures))


def _fuzz(args: argparse.Namespace) -> int:
    from .exploration import MUTATION_OPS, FuzzSpec, load_corpus_cells, run_fuzz

    if args.list:
        spec = FuzzSpec()
        print("mutation operators:")
        for name, desc in MUTATION_OPS.items():
            print(f"  {name:<12}{desc}")
        print()
        print("churn plans:")
        for name in AXIS["churn"].names():
            print(f"  {name}")
        print()
        print("fallback policies:")
        for name in FALLBACK.names():
            print(f"  {name}")
        print()
        print(
            f"defaults: budget={spec.budget} batch={spec.batch} "
            f"max_prefix={spec.max_prefix} family={spec.family} "
            f"sizes={list(spec.sizes)} seeds={list(spec.seeds)} "
            f"fallbacks={list(spec.fallbacks)} churns={list(spec.churns)}"
        )
        return 0

    spec = FuzzSpec(**_target_kwargs(args, FuzzSpec))
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
    return _print_counterexamples(args.out, "fuzz", report.shrunk, len(report.failures))


def _print_counterexamples(
    out: str, command: str, outcomes: Iterable[Any], failures: int
) -> int:
    """Write and print each shrunk counterexample of *failures* failing
    cells; the exit code is always 1."""
    from .exploration import write_artifact

    shrunk = 0
    for shrunk, outcome in enumerate(outcomes, 1):
        path = write_artifact(
            out,
            outcome.result,
            note=f"found by repro {command}; shrunk from {outcome.original.canonical()}",
        )
        print()
        print(f"counterexample: {outcome.original.canonical()}")
        print(f"  shrunk ({outcome.probes} probes) -> {outcome.cell.canonical()}")
        for code, detail in zip(
            outcome.result.verdict.failures, outcome.result.verdict.details
        ):
            print(f"  [{code}] {detail}")
        print(f"  artifact: {path}")
    if failures > shrunk:
        print(f"\n({failures - shrunk} further failing cell(s) not shrunk; "
              f"raise --max-shrink to cover them)")
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
