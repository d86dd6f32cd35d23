"""Byzantine replicas as behaviour of a node, not branches of the protocol.

As in Castro and Liskov's model, the ordering core
(:mod:`repro.replication.pbft` and its two mix-ins) is written for
correct nodes only.  A replica's faults live in one per-node fault table
on the :class:`~repro.replication.network.DeliveryCore` of every
transport, as three levers:

* **rewrite** — what the node says in place of each payload it sends.  It
  runs first in ``_seal``, before the address and partition checks, the
  simulation's loss and latency draws, the MAC and any count; ``None``
  means the node never sent it (nothing is counted, recorded or drawn).
  A rewritten payload is sealed like any other, so its lie verifies;
* **sink** — the node's handler is swapped for a sink until recovery:
  deliveries still land and count as ``delivered``, and nothing runs;
* **posts** — ``post`` runs no callback for the node: no posted drain,
  no view-change timer (``check_timeouts``), no forced view change.

:class:`ReplicaFaultMode` names four presets over them (:data:`PRESETS`):

==========  ==========================================================
CRASHED     sink, rewrite→None, no posts
MUTE        rewrite→None, no posts: it executes, and proposes and times
            out nothing
LYING       rewrites its ``ClientReply`` results and its pushes
            (:data:`PUSH_LIES`); each lie names the liar, so ``f`` liars
            never agree on one wrong answer
DIVERGENT   none on the wire: an application-level digest fault
==========  ==========================================================

DIVERGENT stays in the application (:class:`DivergentApplication`).  A
rewrite of its outgoing CHECKPOINTs would leave its own tally counting
its true vote, so two such replicas would each certify with the two
correct ones, and the wedge the mode reproduces (every replica stuck at
stable checkpoint 0, the votes split two against two) would be lost.

**Node versus link.**  ``set_tampering`` writes the other lever of the
same row: a *link* that corrupts a payload after the sender's MAC was
computed, so every receiver rejects it as ``bad-mac``.  A node's rewrite
is its own word and passes every check; only the protocol can defeat it.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable, Hashable, Optional, TYPE_CHECKING

from repro.replication.crypto import digest
from repro.replication.messages import (
    ClientReply,
    Notify,
    TxnAck,
    TxnDecision,
    TxnPrepare,
    TxnVote,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.replication.pbft import OrderingNode

__all__ = [
    "ReplicaFaultMode",
    "PRESETS",
    "PUSH_LIES",
    "DivergentApplication",
    "set_fault",
    "fault_of",
]


class ReplicaFaultMode(enum.Enum):
    """Behaviour of a replica: a preset over the fault table's levers."""

    CORRECT = "correct"
    CRASHED = "crashed"
    MUTE = "mute"
    LYING = "lying"
    #: Executes and replies correctly but votes a corrupted (yet
    #: deterministic) checkpoint digest — the checkpoint wedge shape: with
    #: two of four replicas divergent the checkpoint votes split 2-vs-2,
    #: no 2f+1 certificate ever forms, and the log window jams.
    DIVERGENT = "divergent"


def _flipped(value: str, one: str, other: str) -> str:
    return other if value == one else one


#: How a LYING replica corrupts each replica→client push, by class — the
#: one place the rule is spelled.  Every lie bakes the liar's id in (as a
#: field, or through the push's own ``replica``), so ``f`` liars corrupt
#: *independently* and can never assemble the ``f + 1`` matching pushes a
#: client acts on.  A push class without an entry goes out unchanged:
#: adding one means deciding here how it is corrupted.
PUSH_LIES: dict[type, Callable[[Any, Hashable], dict[str, Any]]] = {
    # Same corruption model as a lying reply: a fabricated entry.
    Notify: lambda push, liar: {
        "entry": ("CORRUPTED", liar, repr(push.entry)),
        "entry_digest": digest(("CORRUPTED", liar, repr(push.entry))),
    },
    TxnPrepare: lambda push, liar: {"participants": (("LYING", liar),)},
    TxnVote: lambda push, liar: {
        "vote": _flipped(push.vote, "yes", "no"),
        "reason": ("LYING", liar),
        "pins_digest": digest(("LYING", liar)),
    },
    TxnDecision: lambda push, liar: {
        "outcome": _flipped(push.outcome, "commit", "abort"),
        "reason": ("LYING", liar),
    },
    TxnAck: lambda push, liar: {"outcome": _flipped(push.outcome, "commit", "abort")},
}


def _unsent(payload: Any) -> None:
    return None


def _liar(node: Hashable) -> Callable[[Any], Any]:
    """The rewrite of the LYING replica ``node``.

    A reply's lie is self-consistent (its digest is its result's).  A
    single liar claiming the *correct* digest over a forged result needs
    no collusion; the client defeats that one by hashing every reply's
    result on receipt (``replication/tally.py``).
    """

    def lie(payload: Any) -> Any:
        if type(payload) is ClientReply:
            result = ("CORRUPTED", node, repr(payload.result))
            return dataclasses.replace(payload, result=result, result_digest=digest(result))
        corrupt = PUSH_LIES.get(type(payload))
        if corrupt is None:
            return payload
        return dataclasses.replace(payload, **corrupt(payload, node))

    return lie


#: Per mode: its rewrite (built from the node's id), sink, posts.
PRESETS: dict[ReplicaFaultMode, tuple[Optional[Callable[[Hashable], Any]], bool, bool]] = {
    ReplicaFaultMode.CORRECT: (None, False, True),
    ReplicaFaultMode.CRASHED: (lambda node: _unsent, True, False),
    ReplicaFaultMode.MUTE: (lambda node: _unsent, False, False),
    ReplicaFaultMode.LYING: (_liar, False, True),
    ReplicaFaultMode.DIVERGENT: (None, False, True),
}


class DivergentApplication:
    """An application whose checkpoint snapshots digest differently from
    its peers', the same way every time (as a nondeterministic state
    digest would); everything else is the wrapped application's."""

    def __init__(self, application: Any) -> None:
        self.application = application

    def capture_state(self) -> Any:
        return (self.application.capture_state(), "divergent-checkpoint")

    def __getattr__(self, name: str) -> Any:
        return getattr(self.application, name)


def set_fault(
    node: "OrderingNode", mode: ReplicaFaultMode, *, rewrite: Optional[Callable[[Any], Any]] = None
) -> None:
    """Make ``node`` behave as ``mode`` from now on (``CORRECT`` restores it).

    Writes the node's row of its transport's fault table with the preset's
    levers (keeping the row's link tampering); ``rewrite`` replaces the
    preset's with the caller's own lie.
    """
    build, sink, posts = PRESETS[mode]
    if rewrite is None and build is not None:
        rewrite = build(node.replica_id)
    node.network.set_fault(node.replica_id, mode, rewrite=rewrite, sink=sink, posts=posts)
    application = node.application
    if isinstance(application, DivergentApplication):
        application = application.application
    divergent = mode is ReplicaFaultMode.DIVERGENT
    node.application = DivergentApplication(application) if divergent else application


def fault_of(node: "OrderingNode") -> ReplicaFaultMode:
    """The mode ``node``'s row of the fault table names."""
    return node.network.fault_of(node.replica_id)
