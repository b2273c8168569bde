"""Every named choice is a plain dict read through one lookup.

Graph families, startup constructions, delay models, algorithms, fault
plans, scheduler policies, churn plans, scenarios, benches, bench suites
and paper tables are each one dict from name to entry. An unknown name
raises one error type, :class:`~repro.errors.UnknownNameError` (a
``ReproError`` and a ``ValueError``), whose message names the table and
lists every valid name. ``repro families`` lists the run axes from the
same tables.
"""

import pytest

from repro.algorithms import ALGORITHMS, run_algorithm
from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.cli import main
from repro.errors import ReproError, UnknownNameError, lookup
from repro.graphs.generators import FAMILIES, make_family, ring
from repro.perf import BENCHES, SUITES, suite_benches
from repro.scenarios import SCENARIOS, builtin_campaign
from repro.sim.churn import CHURN_PLANS, churn_plan_from_name
from repro.sim.delays import DELAYS, delay_model_from_name
from repro.sim.faults import FAULT_PLANS, fault_plan_from_name
from repro.sim.scheduler import (
    FALLBACKS,
    SCHEDULERS,
    ReplayScheduler,
    scheduler_from_name,
)
from repro.spanning.provider import INITIAL_METHODS, build_spanning_tree

#: (table, what one name denotes, the public entry point taking a name)
TABLES = {
    "families": (FAMILIES, "family", lambda name: make_family(name, 8)),
    "initial methods": (
        INITIAL_METHODS,
        "initial method",
        lambda name: build_spanning_tree(ring(4), name),
    ),
    "delays": (DELAYS, "delay model", delay_model_from_name),
    "algorithms": (ALGORITHMS, "algorithm", lambda name: run_algorithm(name, ring(4))),
    "faults": (FAULT_PLANS, "fault plan", lambda name: fault_plan_from_name(name, 8)),
    "schedulers": (SCHEDULERS, "scheduler policy", scheduler_from_name),
    "replay fallbacks": (
        FALLBACKS,
        "replay fallback",
        lambda name: ReplayScheduler((), name),
    ),
    "churns": (CHURN_PLANS, "churn plan", lambda name: churn_plan_from_name(name, 8)),
    "scenarios": (SCENARIOS, "scenario", lambda name: builtin_campaign([name])),
    "benches": (BENCHES, "bench", lambda name: lookup(BENCHES, name, "bench")),
    "suites": (SUITES, "suite", suite_benches),
    "experiments": (EXPERIMENTS, "experiment", run_experiment),
}


@pytest.mark.parametrize("table, what, resolve", TABLES.values(), ids=list(TABLES))
def test_unknown_name_raises_the_one_error(table, what, resolve):
    with pytest.raises(UnknownNameError) as excinfo:
        resolve("no_such_name")
    assert isinstance(excinfo.value, ReproError)
    assert isinstance(excinfo.value, ValueError)
    assert str(excinfo.value) == (
        f"unknown {what} 'no_such_name'; choose from {', '.join(sorted(table))}"
    )


#: ``repro families`` byte for byte: the initial methods in declaration
#: order, every other axis sorted, then the scenarios and the bench
#: suites
FAMILIES_GOLDEN = """\
graph families:
  barbell
  bipartite
  circulant
  complete
  geometric
  gnp_dense
  gnp_sparse
  grid
  hamiltonian
  hypercube
  pref_attach
  regular4
  ring
  wheel

initial methods:
  echo
  dfs
  ghs
  election
  bfs
  cdfs
  greedy_hub
  random
  mst

modes:
  concurrent
  single

delay models:
  exponential
  perlink
  uniform
  unit

algorithms:
  blin_butelle
  fr_local

fault plans:
  crash_one
  crash_storm
  lossy_heavy
  lossy_light
  none

scheduler policies:
  fifo
  lifo
  none
  random
  replay
  starve

churn plans:
  churn_storm
  flap_edge
  none
  restart_one
  restart_wave

scenarios:
  adversarial_delay
  churn_storm
  crash_storm
  dense_clique
  head_to_head
  lossy_links
  paper_baseline
  scale_free
  schedule_storm
  wireless_geometric

bench suites:
  smoke
  core
  full
"""


def test_families_listing_is_pinned(capsys):
    assert main(["families"]) == 0
    assert capsys.readouterr().out == FAMILIES_GOLDEN
