"""Campaign report artifacts: markdown + JSON.

One campaign run aggregates into two deterministic documents:

* ``report.md`` — human-readable: per-scenario tables (mean final
  degree vs. the records' judged lower bound on Δ*, how many final
  trees carry an F-R witness, rounds, messages, causal time, stall
  counts under fault plans) plus ASCII charts rendered with
  :func:`repro.viz.render_bar_chart`;
* ``report.json`` — machine-readable: the campaign spec, every record,
  and the aggregate rows, for downstream tooling.

Determinism is a feature, not an accident: reports contain no
timestamps, hostnames or durations, so a serial run, a ``--jobs N``
run and a warm-cache replay of the same campaign produce *identical*
bytes (pinned by tests).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..analysis.records import RunRecord
from ..viz.charts import render_bar_chart
from .runner import CampaignResult, ScenarioResult

__all__ = [
    "aggregate_scenario",
    "render_markdown",
    "report_json_dict",
    "write_report",
]

#: the non-seed cell axes a scenario's records aggregate over
_GROUP_AXES = (
    "algorithm", "family", "n", "initial_method", "mode", "delay", "fault",
    "scheduler", "churn",
)


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def aggregate_scenario(result: ScenarioResult) -> list[dict[str, Any]]:
    """Collapse a scenario's records over seeds into aggregate rows.

    One row per distinct non-seed cell configuration, in first-seen cell
    order. Stalled runs are counted (``stalled``) but excluded from the
    metric means *and* from the mean of the records' judged ``lb``, so
    ``k_final`` and ``degree_lb`` average over the same instances
    (per-instance k* ≥ lb, hence mean k* ≥ mean lb, row by row); a group
    whose every run stalled reports ``None`` means. ``fr_certified``
    counts the completed runs whose final tree has an F-R witness.
    """
    groups: dict[tuple, dict[str, Any]] = {}
    for cell, record in zip(result.cells, result.records):
        key = tuple(getattr(cell, axis) for axis in _GROUP_AXES)
        row = groups.get(key)
        if row is None:
            row = groups[key] = {
                **{axis: getattr(cell, axis) for axis in _GROUP_AXES},
                "runs": 0,
                "stalled": 0,
                "_ok": [],
            }
        row["runs"] += 1
        if record.ok:
            row["_ok"].append(record)
        else:
            row["stalled"] += 1
    out = []
    for row in groups.values():
        ok: list[RunRecord] = row.pop("_ok")
        row["degree_lb"] = _mean([r.lb for r in ok])
        row["fr_certified"] = sum(not r.fr_improvable for r in ok)
        row["k_initial"] = _mean([r.k_initial for r in ok])
        row["k_final"] = _mean([r.k_final for r in ok])
        row["rounds"] = _mean([r.rounds for r in ok])
        row["messages"] = _mean([r.messages for r in ok])
        row["causal_time"] = _mean([r.causal_time for r in ok])
        out.append(row)
    return out


def _fmt(value: float | None, digits: int = 1) -> str:
    if value is None:
        return "—"
    return f"{value:.{digits}f}"


def _group_label(row: dict[str, Any]) -> str:
    """Chart label: algorithm/family/n plus every non-default axis, so
    two aggregate rows can never collide on the same label."""
    parts = [row["algorithm"], row["family"], f"n={row['n']}"]
    if row["initial_method"] != "echo":
        parts.append(row["initial_method"])
    if row["mode"] != "concurrent":
        parts.append(row["mode"])
    if row["delay"] != "unit":
        parts.append(row["delay"])
    if row["fault"] != "none":
        parts.append(row["fault"])
    if row["scheduler"] != "none":
        parts.append(row["scheduler"])
    if row["churn"] != "none":
        parts.append(f"churn:{row['churn']}")
    return "/".join(parts)


def _scenario_markdown(
    result: ScenarioResult, rows: list[dict[str, Any]]
) -> list[str]:
    sc = result.spec
    lines = [f"## Scenario `{sc.name}`", ""]
    if sc.description:
        lines += [sc.description, ""]
    lines += [
        f"- cells: {len(result.records)} "
        f"(ok {result.num_ok}, stalled {result.num_stalled})",
        f"- axes: families={list(sc.families)} sizes={list(sc.sizes)} "
        f"seeds={list(sc.seeds)} initial={list(sc.initial_methods)} "
        f"modes={list(sc.modes)} delays={list(sc.delays)} "
        f"faults={list(sc.faults)} schedulers={list(sc.schedulers)} "
        f"churns={list(sc.churns)} algorithms={list(sc.algorithms)}",
        "",
        "| algorithm | family | n | initial | mode | delay | fault | sched "
        "| churn | runs | stalled | k0 | k* | LB(Δ*) | F-R cert. | rounds "
        "| msgs | time |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row['algorithm']} | {row['family']} | {row['n']} "
            f"| {row['initial_method']} | {row['mode']} "
            f"| {row['delay']} | {row['fault']} | {row['scheduler']} "
            f"| {row['churn']} | {row['runs']} "
            f"| {row['stalled']} | {_fmt(row['k_initial'])} "
            f"| {_fmt(row['k_final'])} | {_fmt(row['degree_lb'])} "
            f"| {row['fr_certified']} | {_fmt(row['rounds'])} | {_fmt(row['messages'], 0)} "
            f"| {_fmt(row['causal_time'], 0)} |"
        )
    degree_items = [
        (_group_label(row), row["k_final"])
        for row in rows
        if row["k_final"] is not None
    ]
    message_items = [
        (_group_label(row), row["messages"])
        for row in rows
        if row["messages"] is not None
    ]
    lines += ["", "mean final degree k* (completed runs):", ""]
    lines += ["```", render_bar_chart(degree_items), "```"]
    lines += ["", "mean messages (completed runs):", ""]
    lines += ["```", render_bar_chart(message_items), "```", ""]
    return lines


def render_markdown(
    result: CampaignResult,
    *,
    aggregates: list[list[dict[str, Any]]] | None = None,
) -> str:
    """The full campaign report as one markdown document.

    *aggregates* (from the same result) lets callers that also build
    the JSON payload aggregate once; omitted, it is computed here.
    """
    campaign = result.spec
    lines = [f"# Campaign report — `{campaign.name}`", ""]
    if campaign.description:
        lines += [campaign.description, ""]
    lines += [
        f"- scenarios: {len(result.results)} "
        f"({', '.join(sc.name for sc in campaign.scenarios)})",
        f"- cells: {result.num_cells} "
        f"(ok {result.num_ok}, stalled {result.num_stalled})",
        "",
    ]
    if aggregates is None:
        aggregates = [aggregate_scenario(sr) for sr in result.results]
    for scenario_result, rows in zip(result.results, aggregates):
        lines += _scenario_markdown(scenario_result, rows)
    return "\n".join(lines).rstrip() + "\n"


def report_json_dict(
    result: CampaignResult,
    *,
    aggregates: list[list[dict[str, Any]]] | None = None,
) -> dict[str, Any]:
    """The machine-readable report payload."""
    if aggregates is None:
        aggregates = [aggregate_scenario(sr) for sr in result.results]
    scenarios = []
    for scenario_result, rows in zip(result.results, aggregates):
        scenarios.append(
            {
                "spec": scenario_result.spec.to_json_dict(),
                "aggregates": rows,
                "records": [r.to_json_dict() for r in scenario_result.records],
                "ok": scenario_result.num_ok,
                "stalled": scenario_result.num_stalled,
            }
        )
    return {
        "campaign": result.spec.to_json_dict(),
        "totals": {
            "cells": result.num_cells,
            "ok": result.num_ok,
            "stalled": result.num_stalled,
        },
        "scenarios": scenarios,
    }


def write_report(result: CampaignResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Write ``report.md`` + ``report.json`` under *out_dir* (one shared
    aggregation pass for both artifacts)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    md_path = out / "report.md"
    json_path = out / "report.json"
    aggregates = [aggregate_scenario(sr) for sr in result.results]
    md_path.write_text(
        render_markdown(result, aggregates=aggregates), encoding="utf-8"
    )
    json_path.write_text(
        json.dumps(report_json_dict(result, aggregates=aggregates), sort_keys=True, indent=2)
        + "\n",
        encoding="utf-8",
    )
    return md_path, json_path
