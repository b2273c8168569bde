"""Pluggable distributed MDST algorithms.

Importing this package registers the built-in algorithms:

* ``blin_butelle`` — the paper's MDegST protocol (migrating round root,
  concurrent same-cutter exchanges, single-target polish);
* ``fr_local`` — Fürer–Raghavachari-style local improvement with a
  fixed coordinator and full-fragment candidate search.

Both subclass :class:`repro.protocol.rounds.ImprovementProcess`, the
shared improvement round, and override only its policy hooks. Add an
algorithm the same way, then call :func:`register_algorithm` with a
runner matching the contract documented in
:mod:`repro.algorithms.registry`;
it immediately becomes available to ``run_sweep`` (``algorithms`` axis),
``python -m repro sweep --algorithm`` and ``repro compare``.
"""

from .fr_local import FRProcess, run_fr_local
from .registry import (
    DEFAULT_ALGORITHM,
    Algorithm,
    algorithm_names,
    get_algorithm,
    register_algorithm,
    run_algorithm,
)

__all__ = [
    "Algorithm",
    "DEFAULT_ALGORITHM",
    "algorithm_names",
    "get_algorithm",
    "register_algorithm",
    "run_algorithm",
    "FRProcess",
    "run_fr_local",
]
