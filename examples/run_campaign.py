"""Scenario & campaign engine walkthrough.

1. run a built-in scenario (shrunk) and print its markdown report;
2. author a custom campaign in code, dump it to TOML, load it back and
   run it — the round trip scenario files are meant for.

Run with: PYTHONPATH=src python examples/run_campaign.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.scenarios import (
    SCENARIOS,
    CampaignSpec,
    ScenarioSpec,
    builtin_campaign,
    dump_campaign,
    load_campaign,
    render_markdown,
    run_campaign,
    write_report,
)


def builtin_demo() -> None:
    print(f"built-in scenarios: {', '.join(sorted(SCENARIOS))}\n")
    campaign = builtin_campaign(["lossy_links"]).tiny()
    result = run_campaign(campaign)
    print(render_markdown(result))


def custom_campaign_demo() -> None:
    campaign = CampaignSpec(
        name="latency_study",
        description="delay-model sensitivity on two sparse regimes",
        scenarios=(
            ScenarioSpec(
                name="sparse_unit",
                description="unit-delay baseline",
                families=("gnp_sparse",),
                sizes=(12,),
                seeds=(0, 1),
            ),
            ScenarioSpec(
                name="sparse_skewed",
                description="per-link skew (adversarial schedules)",
                families=("gnp_sparse",),
                sizes=(12,),
                seeds=(0, 1),
                delays=("perlink",),
            ),
        ),
    )
    with tempfile.TemporaryDirectory() as tmp:
        doc = dump_campaign(campaign, Path(tmp) / "latency_study.toml")
        print(f"-- campaign document ({doc.name}) " + "-" * 30)
        print(doc.read_text())
        result = run_campaign(load_campaign(doc), jobs=1)
        md_path, json_path = write_report(result, Path(tmp) / "report")
        print(f"wrote {md_path.name} + {json_path.name}; markdown follows\n")
        print(md_path.read_text())


if __name__ == "__main__":
    builtin_demo()
    custom_campaign_demo()
