"""Consensus objects built on a single PEATS (Section 5 of the paper).

Four variants are provided:

``WeakConsensus``
    Algorithm 1 — wait-free, uniform, multivalued; the consensus value may
    have been proposed by a faulty process.

``StrongConsensus``
    Algorithm 2 and its k-valued generalisation (Section 5.3) — the
    consensus value was proposed by a *correct* process; t-threshold;
    requires ``n >= (k + 1) t + 1`` processes (``n >= 3t + 1`` for binary).

``DefaultConsensus``
    Section 5.4 — multivalued with optimal resilience ``n >= 3t + 1``; the
    decision is a value proposed by a correct process or the default ``⊥``.

Each object takes a shared space offering ``bind(process)`` — a local
:class:`~repro.peo.peats.PEATS` or a :func:`repro.api.connect` handle over
any deployment — and exposes ``propose(process, value)``.  The
algorithms are also available as explicit step generators
(``propose_steps``) so that the deterministic runners in
:mod:`repro.consensus.runner` can interleave processes, inject Byzantine
behaviour and detect non-termination without threads.
"""

from repro.consensus.base import (
    ConsensusObject,
    ConsensusOutcome,
    TerminationCondition,
    check_agreement,
    check_strong_validity,
    check_validity,
)
from repro.consensus.default import DefaultConsensus
from repro.consensus.runner import ConsensusRun, run_consensus, run_consensus_threaded
from repro.consensus.strong import StrongConsensus
from repro.consensus.weak import WeakConsensus

__all__ = [
    "ConsensusObject",
    "ConsensusOutcome",
    "TerminationCondition",
    "check_agreement",
    "check_validity",
    "check_strong_validity",
    "WeakConsensus",
    "StrongConsensus",
    "DefaultConsensus",
    "ConsensusRun",
    "run_consensus",
    "run_consensus_threaded",
]
