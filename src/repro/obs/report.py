"""Human summary of a telemetry trace (the ``repro obs`` renderer).

Aggregates a parsed trace (see :func:`repro.obs.trace.read_trace`) into
a per-span-name table (count, wall totals when the trace carries the
wall section, summed work attrs), the counter listing by section, a
cache hit-rate line, and the event tally. Deterministic traces render
deterministic text — ``repro obs`` output is golden-tested exactly like
``repro bench --list``.
"""

from __future__ import annotations

from typing import Any

__all__ = ["summarize"]


def _fmt_ms(ns: int) -> str:
    return f"{ns / 1e6:.2f}"


def _agg_attrs(spans: list[dict[str, Any]]) -> str:
    """Summed int attrs plus string attrs that are unique for the name."""
    ints: dict[str, int] = {}
    strs: dict[str, set[str]] = {}
    for doc in spans:
        for key, value in doc["attrs"].items():
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                continue
            if isinstance(value, int):
                ints[key] = ints.get(key, 0) + value
            else:
                strs.setdefault(key, set()).add(value)
    parts = [f"{k}={v}" for k, v in ints.items()]
    parts.extend(
        f"{k}={next(iter(vals))}" for k, vals in strs.items() if len(vals) == 1
    )
    return " ".join(parts) or "—"


def summarize(docs: list[dict[str, Any]]) -> str:
    """Render a parsed trace into the ``repro obs`` summary text."""
    # deferred: analysis.cache imports repro.obs, so a module-level import
    # here would close an import cycle through the analysis package
    from ..analysis.tables import Table

    header = docs[0]
    spans = [d for d in docs if d["kind"] == "span"]
    counters = [d for d in docs if d["kind"] == "counter"]
    events = [d for d in docs if d["kind"] == "event"]
    walls = {d["span"]: d for d in docs if d["kind"] == "wall"}
    env = next((d for d in docs if d["kind"] == "env"), None)

    mode = "deterministic" if header.get("deterministic") else "full"
    out = [f"trace summary — command: {header.get('command') or '?'} ({mode})"]

    # -- spans: aggregate per name, first-appearance order -------------
    by_name: dict[str, list[dict[str, Any]]] = {}
    for doc in spans:
        by_name.setdefault(doc["name"], []).append(doc)
    if spans:
        # self time = own duration minus direct children's durations
        self_ns: dict[int, int] = {
            d["id"]: walls[d["id"]]["dur_ns"] for d in spans if d["id"] in walls
        }
        for doc in spans:
            parent = doc["parent"]
            if parent is not None and doc["id"] in walls and parent in self_ns:
                self_ns[parent] -= walls[doc["id"]]["dur_ns"]
        table = Table(
            ["span", "count", "total [ms]", "self [ms]", "work"],
            title=f"spans — {len(spans)} span(s), {len(by_name)} name(s)",
        )
        for name, group in by_name.items():
            if walls:
                total = sum(walls[d["id"]]["dur_ns"] for d in group)
                self = sum(self_ns[d["id"]] for d in group)
                total_ms, self_ms = _fmt_ms(total), _fmt_ms(self)
            else:
                total_ms = self_ms = "—"
            table.add(name, len(group), total_ms, self_ms, _agg_attrs(group))
        out.append("")
        out.append(table.render())
        if walls:
            top = sorted(
                by_name,
                key=lambda n: -sum(self_ns[d["id"]] for d in by_name[n]),
            )[:5]
            out.append("")
            out.append("top spans by self time:")
            for i, name in enumerate(top, start=1):
                ms = _fmt_ms(sum(self_ns[d["id"]] for d in by_name[name]))
                out.append(f"  {i}. {name}  {ms} ms")
    else:
        out.append("")
        out.append("spans: none recorded")

    # -- counters by section -------------------------------------------
    if counters:
        width = max(len(d["name"]) for d in counters)
        out.append("")
        out.append("counters:")
        for doc in counters:
            out.append(f"  {doc['name'].ljust(width)}  {doc['value']}")
    else:
        out.append("")
        out.append("counters: none recorded")

    # -- cache tier roll-up --------------------------------------------
    values = {d["name"]: d["value"] for d in counters}
    memory = values.get("cache.hits.memory", 0)
    disk = values.get("cache.hits.disk", 0)
    misses = values.get("cache.misses", 0)
    hits = memory + disk
    if any(d["section"] == "cache" for d in counters):
        rate = (
            f"{100.0 * hits / (hits + misses):.1f}%"
            if hits + misses
            else "n/a"
        )
        out.append("")
        out.append(
            f"cache: {hits} hit(s) ({memory} memory, {disk} disk), "
            f"{misses} miss(es), "
            f"{values.get('cache.corruption', 0)} corruption(s) — "
            f"hit rate {rate}"
        )

    # -- events --------------------------------------------------------
    if events:
        tally: dict[str, int] = {}
        for doc in events:
            tally[doc["name"]] = tally.get(doc["name"], 0) + 1
        out.append("")
        out.append(f"events: {len(events)}")
        for name, n in tally.items():
            out.append(f"  {name}  x{n}")

    if env is not None and env.get("fields"):
        fields = env["fields"]
        out.append("")
        out.append(
            "env: " + " ".join(f"{k}={fields[k]}" for k in sorted(fields))
        )
    return "\n".join(out)
