"""The Policy-Enforced Augmented Tuple Space (PEATS).

The PEATS is the paper's central object: a linearizable, wait-free
augmented tuple space whose every operation is mediated by a reference
monitor evaluating a fine-grained access policy.  This module provides the
*local* (single address space) PEATS; the replicated Byzantine
fault-tolerant deployment of Fig. 2 is a one-shard :class:`repro.cluster.
service.ShardedPEATS`, and :func:`repro.api.connect` fronts either with the
same ``bind(process)`` protocol.

Semantics of denied operations
------------------------------

Following the paper, a denied invocation returns the logical value *false*:

* ``out``/``cas`` return a falsy :class:`~repro.peo.base.DeniedResult`
  (``cas`` returns ``(False-like, None)`` shaped the same as a failure so
  callers can treat denial and failure uniformly when they only test
  truthiness);
* ``rdp``/``inp`` return ``None`` — indistinguishable from "no match",
  which is intentional: a process without read rights learns nothing;
* blocking ``rd``/``in_`` raise immediately when denied (they cannot
  meaningfully block forever on a denial), unless ``raise_on_deny`` is
  ``False`` in which case they also return a denial marker via exception
  suppression being impossible — we raise ``AccessDeniedError`` always for
  blocking calls, since returning from a blocking read without a tuple
  would violate its contract.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.errors import AccessDeniedError
from repro.peo.base import DENIED, DeniedResult, PolicyEnforcedObject
from repro.policy.policy import AccessPolicy
from repro.tspace.augmented import AugmentedTupleSpace
from repro.tspace.history import HistoryRecorder
from repro.tspace.interface import BoundView
from repro.tuples import Entry, Template

__all__ = ["PEATS"]


class PEATS(PolicyEnforcedObject):
    """A local, linearizable, wait-free policy-enforced augmented tuple space."""

    def __init__(
        self,
        policy: AccessPolicy,
        *,
        initial: Iterable[Entry] = (),
        history: HistoryRecorder | None = None,
        raise_on_deny: bool = False,
        audit: bool = False,
        obs: Any = None,
    ) -> None:
        super().__init__(
            policy, history=history, raise_on_deny=raise_on_deny, audit=audit, obs=obs
        )
        self._space = AugmentedTupleSpace(initial)

    # ------------------------------------------------------------------
    # Policy plumbing
    # ------------------------------------------------------------------

    def _policy_state(self) -> AugmentedTupleSpace:
        # Policies see the raw space so their conditions can use rdp/snapshot.
        return self._space

    # ------------------------------------------------------------------
    # Tuple-space operations (each takes the invoking process)
    # ------------------------------------------------------------------

    def out(self, entry: Entry, *, process: Any = None) -> Any:
        """Insert ``entry``; returns ``True`` or a falsy denial."""
        return self._guarded(process, "out", (entry,), lambda: self._space.out(entry))

    def rdp(self, template: Template, *, process: Any = None) -> Optional[Entry]:
        """Non-blocking read; ``None`` when no match **or** when denied."""
        result = self._guarded(process, "rdp", (template,), lambda: self._space.rdp(template))
        if isinstance(result, DeniedResult):
            return None
        return result

    def inp(self, template: Template, *, process: Any = None) -> Optional[Entry]:
        """Non-blocking destructive read; ``None`` when no match or denied."""
        result = self._guarded(process, "inp", (template,), lambda: self._space.inp(template))
        if isinstance(result, DeniedResult):
            return None
        return result

    def rd(
        self, template: Template, *, timeout: float | None = None, process: Any = None
    ) -> Entry:
        """Blocking read.  Raises :class:`AccessDeniedError` when denied.

        The permission check is done once, against the state at invocation
        time; the wait itself happens outside the object lock (otherwise no
        writer could ever satisfy it).
        """
        decision_result = self._guarded(process, "rd", (template,), lambda: True)
        if isinstance(decision_result, DeniedResult):
            raise AccessDeniedError(decision_result.reason, process=process, operation="rd")
        return self._space.rd(template, timeout=timeout)

    def in_(
        self, template: Template, *, timeout: float | None = None, process: Any = None
    ) -> Entry:
        """Blocking destructive read.  Raises on denial (see :meth:`rd`)."""
        decision_result = self._guarded(process, "in", (template,), lambda: True)
        if isinstance(decision_result, DeniedResult):
            raise AccessDeniedError(decision_result.reason, process=process, operation="in")
        return self._space.in_(template, timeout=timeout)

    def cas(
        self, template: Template, entry: Entry, *, process: Any = None
    ) -> tuple[Any, Optional[Entry]]:
        """Conditional atomic swap.

        Returns ``(True, None)`` when the entry was inserted,
        ``(False, match)`` when a match pre-existed, and
        ``(DeniedResult, None)`` (falsy first element) when the policy
        denied the invocation.
        """
        result = self._guarded(
            process, "cas", (template, entry), lambda: self._space.cas(template, entry)
        )
        if isinstance(result, DeniedResult):
            return result, None
        return result

    # ------------------------------------------------------------------
    # Payload-level execution (the unified-API request path)
    # ------------------------------------------------------------------

    def execute_operation(
        self, operation: str, arguments: tuple, *, process: Any = None
    ) -> tuple[str, Any]:
        """Execute one non-blocking operation as a reply-style payload.

        Returns the same ``("OK", value)`` / ``("PEATS-DENIED", reason)``
        pairs a :class:`~repro.replication.replica.PEATSReplica` produces
        for the replicated deployment, which is what lets the local backend
        of :mod:`repro.api` present byte-identical observable results to
        the networked ones (including distinguishing a denied ``rdp`` from
        a no-match ``rdp``, which the plain :meth:`rdp` deliberately
        collapses to ``None``).
        """
        if operation == "out":
            result = self._guarded(
                process, "out", arguments, lambda: self._space.out(arguments[0])
            )
        elif operation == "rdp":
            result = self._guarded(
                process, "rdp", arguments, lambda: self._space.rdp(arguments[0])
            )
        elif operation == "inp":
            result = self._guarded(
                process, "inp", arguments, lambda: self._space.inp(arguments[0])
            )
        elif operation == "cas":
            result = self._guarded(
                process,
                "cas",
                arguments,
                lambda: self._space.cas(arguments[0], arguments[1]),
            )
        else:
            return (DENIED, f"unsupported operation {operation!r}")
        if isinstance(result, DeniedResult):
            return (DENIED, result.reason)
        return ("OK", result)

    def execute_transaction(self, legs: tuple, *, process: Any = None) -> tuple[str, Any]:
        """Execute a staged leg sequence atomically (the local fast path).

        The whole resolve/apply cycle runs under the object lock, so the
        legs observe and mutate one linearization point — exactly the
        atomicity a single ordered ``txn_exec`` request gives the
        replicated deployments.  Policy is enforced per leg (each leg is
        authorized as its non-transactional equivalent), and the payload
        mirrors the replica's: ``("OK", ("committed", results))`` or
        ``("OK", ("aborted", reason))`` with the first refusing leg in the
        reason.
        """
        from repro.txn.legs import apply_legs, normalize_legs, resolve_legs

        legs = normalize_legs(legs)
        with self._lock:
            ok, reason, pins = resolve_legs(self._monitor, self._space, process, legs)
            if not ok:
                return ("OK", ("aborted", reason))
            results, _inserted = apply_legs(self._space, legs, pins)
            return ("OK", ("committed", results))

    # ------------------------------------------------------------------
    # Introspection (not policy mediated — used by tests and benchmarks;
    # a real deployment would restrict this to the service administrator).
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple[Entry, ...]:
        return self._space.snapshot()

    def size_bits(self) -> int:
        """Total bits stored in the space (experiment E1 accounting)."""
        return sum(stored.size_bits() for stored in self.snapshot())

    def bind(self, process: Any) -> BoundView:
        """Return a view through which ``process`` issues its operations."""
        return BoundView(self, process)

    def __len__(self) -> int:
        return len(self._space)

    def __contains__(self, item: Any) -> bool:
        return item in self._space

    def __repr__(self) -> str:
        return f"PEATS(policy={self.policy.name!r}, size={len(self)})"
