"""Built-in scenario library.

The named regimes the MDST literature evaluates against, as versioned
spec objects instead of one-off scripts: each entry is a
:class:`~repro.scenarios.spec.ScenarioSpec` addressable from the CLI
(``python -m repro campaign <name>``), from campaign files (by copying
its axes) and from tests (every entry has an end-to-end smoke test).

* ``paper_baseline`` — the paper's own sweep regime (sparse G(n,p) and
  geometric graphs, unit delays);
* ``wireless_geometric`` — radio-network deployments: geometric graphs
  under randomized delays (the broadcast motivation of the paper);
* ``scale_free`` — hub-heavy preferential-attachment topologies, where
  minimum-degree trees matter most;
* ``dense_clique`` — dense regimes (complete graphs and dense G(n,p)),
  the Korach–Moran–Zaks lower-bound setting;
* ``lossy_links`` — message-drop fault plans next to the fault-free
  baseline: the reliability assumption made measurable (stall rates);
* ``crash_storm`` — crash-stop fault plans, same dichotomy;
* ``churn_storm`` — mid-run churn plans (crash-restart waves, link
  flaps) vs. the churn-free baseline: lossless in-order churn must
  still certify, stranding plans must stall loudly, never corrupt;
* ``adversarial_delay`` — per-link skew and exponential reordering
  pressure vs. the unit-delay analysis assumption;
* ``schedule_storm`` — adversarial scheduler policies (newest-first,
  seeded random walk, one-node starvation) vs. the time-based baseline:
  the schedule-freedom claim as a first-class regime;
* ``head_to_head`` — every algorithm on identical instances.
"""

from __future__ import annotations

from ..algorithms import ALGORITHMS
from ..errors import AnalysisError, lookup
from .spec import CampaignSpec, ScenarioSpec

__all__ = ["SCENARIOS", "builtin_campaign"]


def _build() -> dict[str, ScenarioSpec]:
    entries = (
        ScenarioSpec(
            name="paper_baseline",
            description=(
                "the paper's regime: sparse G(n,p) + geometric graphs, "
                "unit delays"
            ),
            families=("gnp_sparse", "geometric"),
            sizes=(16, 24, 32),
            seeds=(0, 1, 2),
        ),
        ScenarioSpec(
            name="wireless_geometric",
            description=(
                "radio networks: geometric graphs under uniform random "
                "delays"
            ),
            families=("geometric",),
            sizes=(16, 24, 32),
            seeds=(0, 1, 2),
            delays=("uniform",),
        ),
        ScenarioSpec(
            name="scale_free",
            description="hub-heavy preferential-attachment topologies",
            families=("pref_attach",),
            sizes=(16, 24, 32),
            seeds=(0, 1, 2),
        ),
        ScenarioSpec(
            name="dense_clique",
            description=(
                "dense regime: complete + dense G(n,p) (KMZ lower-bound "
                "setting)"
            ),
            families=("complete", "gnp_dense"),
            sizes=(12, 16, 20),
            seeds=(0, 1),
        ),
        ScenarioSpec(
            name="lossy_links",
            description=(
                "message-drop fault plans (5% / 25%) vs. the fault-free "
                "baseline"
            ),
            families=("gnp_sparse",),
            sizes=(16,),
            seeds=(0, 1, 2),
            faults=("none", "lossy_light", "lossy_heavy"),
        ),
        ScenarioSpec(
            name="crash_storm",
            description=(
                "crash-stop fault plans vs. the fault-free baseline"
            ),
            families=("gnp_sparse", "ring"),
            sizes=(16,),
            seeds=(0, 1, 2),
            faults=("none", "crash_one", "crash_storm"),
        ),
        ScenarioSpec(
            name="churn_storm",
            description=(
                "mid-run churn plans (crash-restart waves, link flaps) "
                "vs. the churn-free baseline"
            ),
            families=("gnp_sparse", "ring"),
            sizes=(16,),
            seeds=(0, 1, 2),
            churns=("none", "restart_one", "flap_edge", "churn_storm"),
        ),
        ScenarioSpec(
            name="adversarial_delay",
            description=(
                "per-link skew and exponential delays vs. the unit-delay "
                "model"
            ),
            families=("gnp_sparse", "circulant"),
            sizes=(16,),
            seeds=(0, 1, 2),
            delays=("unit", "perlink", "exponential"),
        ),
        ScenarioSpec(
            name="schedule_storm",
            description=(
                "adversarial scheduler policies vs. time-based delivery"
            ),
            families=("gnp_sparse",),
            sizes=(16,),
            seeds=(0, 1, 2),
            schedulers=("none", "lifo", "random", "starve"),
            algorithms=tuple(sorted(ALGORITHMS)),
        ),
        ScenarioSpec(
            name="head_to_head",
            description=(
                "every registered algorithm head-to-head on identical "
                "instances"
            ),
            families=("gnp_sparse", "geometric", "complete"),
            sizes=(16, 24),
            seeds=(0, 1),
            algorithms=tuple(sorted(ALGORITHMS)),
        ),
    )
    return {sc.name: sc for sc in entries}


#: name -> built-in scenario (import-time validated).
SCENARIOS: dict[str, ScenarioSpec] = _build()


def builtin_campaign(names: tuple[str, ...] | list[str]) -> CampaignSpec:
    """Bundle built-in scenarios (by name, order preserved) into a
    campaign named after them."""
    if not names:
        raise AnalysisError(
            f"no scenarios given; built-in scenarios: {', '.join(sorted(SCENARIOS))}"
        )
    scenarios = tuple(lookup(SCENARIOS, name, "scenario") for name in names)
    name = scenarios[0].name if len(scenarios) == 1 else "campaign"
    return CampaignSpec(name=name, scenarios=scenarios)
