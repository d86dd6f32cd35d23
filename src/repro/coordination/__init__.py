"""Higher-level coordination primitives built on the PEATS.

The paper motivates the PEATS with the coordination problems real systems
face — electing leaders, serialising access to a resource, rendezvousing a
set of untrusted processes.  This package builds those primitives on top of
the library's consensus objects and universal constructions, exactly the
way a downstream user of the paper's system would.  Every primitive takes
an optional ``space=``: any shared space offering ``bind(process)`` — a
local :class:`~repro.peo.peats.PEATS`, or the handle
:func:`repro.api.connect` returns for a replicated or sharded deployment
(``connect(service=...)`` wraps one that already exists) — and reaches it
only through the bound views ``bind`` returns, so the same program runs on
any backend:

``LeaderElection``
    Justified leader election: the winner must be nominated by ``t + 1``
    processes (default consensus underneath), with a deterministic
    fallback when nominations are scattered.

``DistributedLock``
    A ticket lock emulated with a universal construction: ``acquire``
    obtains a fetch&increment ticket, the lock holder is the process whose
    ticket equals the "now serving" counter.  Byzantine processes cannot
    steal the lock (they cannot forge SEQ tuples), only refuse to release
    their own — which the lease mechanism bounds.

``Barrier``
    A one-shot rendezvous for ``n`` processes over the PEATS: each process
    outs an ARRIVE tuple (one per process, enforced by policy) and waits
    until ``n - t`` arrivals are visible.
"""

from repro.coordination.barrier import Barrier, barrier_policy
from repro.coordination.election import LeaderElection
from repro.coordination.lock import DistributedLock

__all__ = ["LeaderElection", "DistributedLock", "Barrier", "barrier_policy"]
