"""The paper's contribution: the distributed MDegST protocol.

``run_mdst``, ``MDSTProcess`` and ``make_mdst_factory`` resolve lazily
(PEP 562): :mod:`repro.protocol.rounds` imports :mod:`repro.mdst.messages`,
and :mod:`repro.mdst.node` subclasses that module's base, so importing
this package must not import ``node`` eagerly.
"""

from .config import MDSTConfig
from .messages import (
    BfsWave,
    ChildMsg,
    CousinReply,
    Cut,
    DegreeReport,
    ExchangeDone,
    FlipBack,
    ImproveReport,
    MoveRoot,
    Search,
    Terminate,
    Update,
    WaveEcho,
)
from .result import MDSTResult, RoundInfo

_LAZY = {"run_mdst": "algorithm", "MDSTProcess": "node", "make_mdst_factory": "node"}

__all__ = [
    "run_mdst",
    "MDSTConfig",
    "MDSTResult",
    "RoundInfo",
    "MDSTProcess",
    "make_mdst_factory",
    "Search",
    "DegreeReport",
    "MoveRoot",
    "Cut",
    "BfsWave",
    "CousinReply",
    "WaveEcho",
    "Update",
    "ChildMsg",
    "FlipBack",
    "ExchangeDone",
    "ImproveReport",
    "Terminate",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value  # cache for next access
    return value
