"""Declarative scenario & campaign engine.

Named, versioned evaluation regimes instead of one-off sweep scripts:

* :mod:`~repro.scenarios.spec` — :class:`ScenarioSpec` /
  :class:`CampaignSpec` (eagerly validated, frozen);
* :mod:`~repro.scenarios.loader` — scenarios as shareable TOML/JSON
  documents;
* :mod:`~repro.scenarios.library` — the built-in scenario library
  (``paper_baseline``, ``lossy_links``, ``crash_storm``, ...);
* :mod:`~repro.scenarios.runner` — campaign execution through the
  Serial/Parallel/Caching executor stack;
* :mod:`~repro.scenarios.report` — deterministic markdown + JSON report
  artifacts.

CLI: ``python -m repro campaign`` (``--list``, run by name, ``--file``,
``--jobs``, ``--cache``, ``--out``).
"""

from .library import SCENARIOS, builtin_campaign
from .loader import (
    campaign_from_dict,
    dump_campaign,
    dump_scenario,
    load_campaign,
    load_scenario,
)
from .report import (
    aggregate_scenario,
    render_markdown,
    report_json_dict,
    write_report,
)
from .runner import CampaignResult, ScenarioResult, run_campaign
from .spec import CampaignSpec, ScenarioSpec

__all__ = [
    "ScenarioSpec",
    "CampaignSpec",
    "SCENARIOS",
    "builtin_campaign",
    "load_campaign",
    "load_scenario",
    "dump_campaign",
    "dump_scenario",
    "campaign_from_dict",
    "run_campaign",
    "ScenarioResult",
    "CampaignResult",
    "aggregate_scenario",
    "render_markdown",
    "report_json_dict",
    "write_report",
]
