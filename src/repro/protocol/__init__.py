"""Reusable distributed-protocol primitives.

The paper's MDegST protocol — and every spanning-tree provider in this
library — is assembled from a handful of classic building blocks:

* **broadcast / convergecast** on a rooted tree with pluggable
  aggregation (:class:`Convergecast`);
* **wave + echo** over fragment subtrees with the cross-edge drain
  repair (:class:`WaveEchoTracker`, :class:`DrainSet`);
* **token walks** and acknowledged **root migration**
  (:class:`TokenWalk`, :class:`RootMigration`);
* the **edge-exchange commit** handshake and its messages
  (:class:`ExchangeMixin`);
* **phase sequencing** and the round's completion barrier
  (:class:`PhaseSequencer`, :class:`CountdownBarrier`).

:mod:`repro.protocol.rounds` assembles them into the one improvement
round both registered MDST algorithms run
(:class:`~repro.protocol.rounds.ImprovementProcess`, with policy hooks
for what differs). It needs the message vocabulary of
:mod:`repro.mdst.messages`, which imports this package, so it is not
re-exported here: import it from its module.

The primitives own the *bookkeeping discipline* (who still owes a reply,
when a phase may complete, which messages are protocol violations) while
the host :class:`~repro.sim.node.Process` keeps ownership of message
construction and sending — so a refactor onto these helpers preserves
byte-identical traces, which ``tests/test_protocol_regression.py``
enforces against pre-refactor golden digests.
"""

from .convergecast import Convergecast
from .exchange import ExchangeMixin
from .phases import CountdownBarrier, PhaseSequencer
from .token import RootMigration, TokenWalk
from .wave import DrainSet, WaveEchoTracker

__all__ = [
    "Convergecast",
    "WaveEchoTracker",
    "DrainSet",
    "TokenWalk",
    "RootMigration",
    "CountdownBarrier",
    "PhaseSequencer",
    "ExchangeMixin",
]
