#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly and judge the spread.

Run from the root of a checkout::

    python3 perfbench/steadiness.py --workload sweep_unit
    python3 perfbench/steadiness.py --sets 2      # every workload, twice

Each run is ``BENCHMARK.json``'s command with another ``--seed``, seeds
1 to 10, so the spread covers both timing noise and how much the
seed-drawn inputs move each metric. For every end-to-end metric it
prints the median, the quartiles (as ``statistics.quantiles(values,
n=4)`` gives them) and the spread, the quartile distance as a share of
the median. A spread above the metric's bound is flagged ``OVER``, one
above a third of it ``wide``. With ``--sets 2`` the same seeds run twice
and a second median that differs from the first, either way, by more
than the bound is flagged ``DRIFT``; the work digest of a seed must also
repeat exactly. Exits 1 when anything is flagged ``OVER``, ``DRIFT`` or
incorrect.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"work digest ([0-9a-f]+)")
SEEDS = range(1, 11)


def run_once(config: dict, workload: str, seed: int) -> tuple[dict, str, float]:
    cmd = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0",
    ]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = DIGEST.search(proc.stdout)
    return json.loads(lines[-1]), digest.group(1) if digest else "", wall


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def judge(config: dict, workload: str, sets: list[list[dict]]) -> bool:
    ok = True
    print(f"\n{workload}: {len(sets)} set(s) of {len(sets[0])} runs")
    print(f"  {'metric':22s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>7s} {'bound':>6s}  flags")
    for metric in config["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for runs in sets:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, s = spread(values)
            medians.append(med)
            flags = []
            if s > bound:
                flags.append("OVER")
                ok = False
            elif s > bound / 3:
                flags.append("wide")
            print(f"  {name:22s} {med:14.4f} {q1:14.4f} {q3:14.4f} "
                  f"{s:7.3f} {bound:6.2f}  {' '.join(flags)}")
        if len(medians) == 2:
            first, second = medians
            drift = (second - first) / first
            flag = "DRIFT" if abs(drift) > bound else ""
            ok = ok and not flag
            print(f"  {'':22s} second median vs first: {drift:+.3f} of the first  {flag}")
    return ok


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or names:
        sets, digests = [], {}
        for _ in range(args.sets):
            runs = []
            for seed in SEEDS:
                result, digest, wall = run_once(config, workload, seed)
                print(f"  {workload} seed {seed}: {wall:.1f} s, digest {digest}, "
                      f"correct {result['correct']}", flush=True)
                if not result["correct"]:
                    ok = False
                if digests.setdefault(seed, digest) != digest:
                    print(f"  work digest of seed {seed} did not repeat")
                    ok = False
                runs.append(result)
            sets.append(runs)
        ok = judge(config, workload, sets) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
