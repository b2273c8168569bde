"""Pluggable distributed MDST algorithms.

The :data:`ALGORITHMS` table names the built-in algorithms:

* ``blin_butelle`` — the paper's MDegST protocol (migrating round root,
  concurrent same-cutter exchanges, single-target polish);
* ``fr_local`` — Fürer–Raghavachari-style local improvement with a
  fixed coordinator and full-fragment candidate search.

Both subclass :class:`repro.protocol.rounds.ImprovementProcess`, the
shared improvement round, and override only its policy hooks. An
algorithm is declared once: subclass the round the same way, then add
one :data:`ALGORITHMS` entry, an :class:`Algorithm` whose ``factory``
builds the per-node processes (the contract is documented in
:mod:`repro.algorithms.registry`). The entry's :meth:`~Algorithm.build`
and :meth:`~Algorithm.run` are shared, so it immediately becomes
available to ``run_algorithm``, ``run_sweep``
(``algorithms`` axis), ``python -m repro sweep --algorithm`` and
``repro compare``.
"""

from .fr_local import FRProcess
from .registry import ALGORITHMS, DEFAULT_ALGORITHM, Algorithm, run_algorithm

__all__ = [
    "Algorithm",
    "ALGORITHMS",
    "DEFAULT_ALGORITHM",
    "run_algorithm",
    "FRProcess",
]
