"""repro — reproduction of Blin & Butelle (2003): the first approximated
distributed algorithm for the Minimum Degree Spanning Tree problem on
general graphs.

Top-level convenience re-exports (resolved lazily, PEP 562); see the
subpackages for the full API:

* :mod:`repro.graphs` — topology objects and workload generators
* :mod:`repro.sim` — the asynchronous message-passing network simulator
* :mod:`repro.spanning` — distributed spanning-tree construction (startup)
* :mod:`repro.protocol` — reusable distributed-protocol primitives
* :mod:`repro.mdst` — the paper's MDegST protocol
* :mod:`repro.algorithms` — pluggable algorithm table (Blin–Butelle,
  FR-style local improvement, ...)
* :mod:`repro.sequential` — Fürer–Raghavachari / exact baselines
* :mod:`repro.verify` — spanning-tree & local-optimality certification
* :mod:`repro.analysis` — experiment harness and table rendering
* :mod:`repro.scenarios` — declarative scenario & campaign engine
* :mod:`repro.viz` — ASCII rendering of graphs, trees and traces
"""

from ._version import __version__

_LAZY = {
    "Graph": ("repro.graphs", "Graph"),
    "RootedTree": ("repro.graphs", "RootedTree"),
    "make_family": ("repro.graphs", "make_family"),
    "run_mdst": ("repro.mdst", "run_mdst"),
    "MDSTConfig": ("repro.mdst", "MDSTConfig"),
    "MDSTResult": ("repro.mdst", "MDSTResult"),
    "build_spanning_tree": ("repro.spanning", "build_spanning_tree"),
    "run_algorithm": ("repro.algorithms", "run_algorithm"),
    "ALGORITHMS": ("repro.algorithms", "ALGORITHMS"),
    "fuerer_raghavachari": ("repro.sequential", "fuerer_raghavachari"),
    "exact_minimum_degree_spanning_tree": (
        "repro.sequential",
        "exact_minimum_degree_spanning_tree",
    ),
    "kmz_lower_bound": ("repro.sequential", "kmz_lower_bound"),
    "ScenarioSpec": ("repro.scenarios", "ScenarioSpec"),
    "CampaignSpec": ("repro.scenarios", "CampaignSpec"),
    "SCENARIOS": ("repro.scenarios", "SCENARIOS"),
    "run_campaign": ("repro.scenarios", "run_campaign"),
}

__all__ = ["__version__", *sorted(_LAZY)]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value  # cache for next access
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
