"""Exception hierarchy for the PEATS reproduction library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors such
as :class:`TypeError` coming from their own code.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TupleError",
    "MalformedTupleError",
    "MatchTypeError",
    "PolicyError",
    "PolicyEvaluationError",
    "AccessDeniedError",
    "TupleSpaceError",
    "OperationTimeoutError",
    "BlockingReadTimeout",
    "PendingOperationError",
    "ConsensusError",
    "TerminationError",
    "ResilienceError",
    "UniversalConstructionError",
    "ReplicationError",
    "AuthenticationError",
    "QuorumError",
    "ViewChangeError",
    "CrossShardError",
    "TxnAbortedError",
    "SimulationError",
]


class ReproError(Exception):
    """Base class of all errors raised by the ``repro`` library."""


class TupleError(ReproError):
    """Base class for errors related to tuples and templates."""


class MalformedTupleError(TupleError):
    """Raised when a tuple or template is structurally invalid.

    Examples: an *entry* containing a wildcard or formal field, an empty
    tuple, or a field of an unsupported type.
    """


class MatchTypeError(TupleError):
    """Raised when matching is attempted between incompatible objects."""


class PolicyError(ReproError):
    """Base class for access-policy related errors."""


class PolicyEvaluationError(PolicyError):
    """Raised when a rule expression cannot be evaluated.

    Following the fail-safe-defaults principle of the paper (Section 3),
    the reference monitor converts this error into a *deny* decision, but
    the error itself is preserved for diagnostics.
    """


class AccessDeniedError(PolicyError):
    """Raised (optionally) when an invocation is denied by the monitor.

    The default behaviour of a PEO is to return ``False`` on denial, as in
    the paper.  ``AccessDeniedError`` is raised only when the object is
    configured with ``raise_on_deny=True``, which is convenient in tests.
    """

    def __init__(self, message: str, *, process: object = None, operation: str | None = None):
        super().__init__(message)
        self.process = process
        self.operation = operation


class TupleSpaceError(ReproError):
    """Base class for tuple-space errors."""


class OperationTimeoutError(TupleSpaceError, TimeoutError):
    """Raised when a blocking ``rd``/``in`` finds no match within its budget.

    The one timeout exception of the unified API: every backend — the local
    spaces (wall-clock seconds) and the replicated and sharded
    :mod:`repro.api` handles (simulated milliseconds) — raises this same
    class, with the unmatched template in the message.  It derives from the
    builtin :class:`TimeoutError`, so pre-existing ``except TimeoutError``
    handlers (the deprecated spelling) keep working.
    """


#: Deprecated convenience alias (the unification previously surfaced the
#: builtin :class:`TimeoutError`, which still catches via inheritance);
#: new code should catch :class:`OperationTimeoutError`.
BlockingReadTimeout = OperationTimeoutError


class PendingOperationError(TupleSpaceError):
    """Raised when a process violates well-formedness (correct interaction).

    The paper assumes every process invokes a new operation only after the
    previous one returned.  The unified API raises it when a future's
    result is read while the operation is still in flight.
    """


class ConsensusError(ReproError):
    """Base class for consensus-object errors."""


class TerminationError(ConsensusError):
    """Raised when a consensus execution exceeds its step budget.

    Used by the test/benchmark harness to detect non-termination in
    configurations below the resilience bound (Theorems 3 and 4).
    """


class ResilienceError(ConsensusError):
    """Raised when a consensus object is configured below its bound."""


class UniversalConstructionError(ReproError):
    """Base class for universal-construction errors."""


class ReplicationError(ReproError):
    """Base class for errors in the replicated PEATS substrate."""


class AuthenticationError(ReplicationError):
    """Raised when a message fails authentication (bad MAC / signature)."""


class QuorumError(ReplicationError):
    """Raised when a quorum cannot be assembled (too many faulty replicas)."""


class ViewChangeError(ReplicationError):
    """Raised when a view change cannot complete."""


class CrossShardError(ReplicationError):
    """Raised when an operation cannot be routed to a single shard.

    Tuple-space operations are routed to replica groups by the tuple's
    *name* (its first field).  A template whose name field is a wildcard or
    formal matches tuples on every shard, so it has no single owner.  The
    unified API (:func:`repro.api.connect`) resolves the multi-shard forms
    itself — wildcard-name ``rdp``/``inp`` by scatter-gather, wildcard-name
    and cross-shard ``cas`` as atomic transactions — so this error now
    surfaces only from the lower-level routing client, and from transaction
    legs that genuinely cannot be placed (see ``Space.transact``).
    """


class TxnAbortedError(ReplicationError):
    """Raised by ``TxnOutcome.raise_for_abort`` when a transaction aborted.

    Carries the wire-safe abort reason (first refusing leg, policy detail,
    lock conflict, or ``("expired",)`` for a coordinator force-abort) on
    ``.reason``.
    """

    def __init__(self, message: str, *, reason: object = None) -> None:
        super().__init__(message)
        self.reason = reason


class SimulationError(ReproError):
    """Raised by the discrete-event simulator on inconsistent schedules."""
