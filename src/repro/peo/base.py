"""Generic policy-enforced object machinery.

Every PEO follows the same request path:

1. build the :class:`~repro.policy.invocation.Invocation` from the caller's
   identity, the operation name and its arguments;
2. ask the :class:`~repro.policy.monitor.ReferenceMonitor` whether the
   invocation may execute, giving it the *current* object state;
3. execute the operation if allowed, otherwise return a denial (``False``
   in the paper; here a :class:`DeniedResult` that is falsy and carries the
   reason), or raise :class:`~repro.errors.AccessDeniedError` when the
   object was built with ``raise_on_deny=True``;
4. record the completed (or denied) operation in the history, if any.

Crucially, steps 2–3 happen **atomically** with respect to other operations
on the same object (a single re-entrant lock serialises them), so a policy
condition that inspects the object state cannot be invalidated between the
check and the execution.  This mirrors the replicated implementation, where
the total-order protocol serialises requests before each replica's monitor
and space execute them back-to-back.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.errors import AccessDeniedError
from repro.obs import resolve_obs
from repro.policy.invocation import Invocation
from repro.policy.monitor import Decision, ReferenceMonitor
from repro.policy.policy import AccessPolicy
from repro.tspace.history import HistoryRecorder

__all__ = ["DENIED", "DeniedResult", "PolicyEnforcedObject"]

#: Marker used in serialised reply payloads for a denied invocation.  The
#: replicated service puts it on the wire in ``ClientReply`` payloads, and
#: the unified :mod:`repro.api` layer uses the same shape for every backend
#: so denial payloads compare equal across deployment shapes.
DENIED = "PEATS-DENIED"


class DeniedResult:
    """Falsy result returned when the reference monitor denies an invocation.

    The paper specifies that a denied invocation returns the logical value
    *false*.  Returning a dedicated falsy object instead of ``False`` keeps
    that contract (``if result:`` behaves identically) while letting tests
    and callers inspect why the invocation was rejected.
    """

    __slots__ = ("decision",)

    def __init__(self, decision: Decision) -> None:
        self.decision = decision

    @property
    def reason(self) -> str:
        return self.decision.reason

    def __bool__(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return other is False or isinstance(other, DeniedResult)

    def __hash__(self) -> int:
        return hash(False)

    def __repr__(self) -> str:
        return f"DeniedResult({self.decision.reason!r})"


class PolicyEnforcedObject:
    """Base class for objects protected by a fine-grained access policy.

    Subclasses implement the actual operations as private methods and route
    caller-facing methods through :meth:`_guarded`, passing the operation
    name, the invoker and the arguments.
    """

    def __init__(
        self,
        policy: AccessPolicy,
        *,
        history: HistoryRecorder | None = None,
        raise_on_deny: bool = False,
        audit: bool = False,
        obs: Any = None,
    ) -> None:
        self._monitor = ReferenceMonitor(policy, audit=audit)
        self._history = history
        self._raise_on_deny = raise_on_deny
        self._lock = threading.RLock()
        #: Observability bundle (a private disabled one when none is given).
        self.obs = resolve_obs(obs)
        registry = self.obs.registry
        self._obs_operations = registry.counter(
            "peats_operations_total", "Invocations the reference monitor authorized"
        )
        self._obs_denials = registry.counter(
            "peats_denials_total", "Invocations the reference monitor denied, by reason kind"
        )
        # Per-operation bound children, created on first use so the hot
        # path is one dict hit + one no-arg inc.
        self._obs_op_children: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------

    def _policy_state(self) -> Any:
        """Return the object state the policy conditions should see.

        Subclasses override this; the default exposes the object itself.
        """
        return self

    # ------------------------------------------------------------------
    # Guarded execution
    # ------------------------------------------------------------------

    def _guarded(
        self,
        process: Any,
        operation: str,
        arguments: Sequence[Any],
        execute: Callable[[], Any],
    ) -> Any:
        """Authorize and (atomically) execute ``operation``."""
        invocation = Invocation(process=process, operation=operation, arguments=tuple(arguments))
        with self._lock:
            decision = self._monitor.authorize(invocation, self._policy_state())
            if not decision.allowed:
                # Labelled by the bounded reason *kind*: the reason text can
                # quote an exception raised on the caller's own arguments.
                self._obs_denials.labels(operation=operation, reason=decision.kind).inc()
                if self._history is not None:
                    self._history.record(
                        process=process,
                        operation=operation,
                        arguments=arguments,
                        result=False,
                        denied=True,
                    )
                if self._raise_on_deny:
                    raise AccessDeniedError(
                        decision.reason, process=process, operation=operation
                    )
                return DeniedResult(decision)
            counter = self._obs_op_children.get(operation)
            if counter is None:
                counter = self._obs_op_children[operation] = self._obs_operations.labels(
                    operation=operation
                )
            counter.inc()
            result = execute()
            if self._history is not None:
                self._history.record(
                    process=process,
                    operation=operation,
                    arguments=arguments,
                    result=result,
                )
            return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def monitor(self) -> ReferenceMonitor:
        return self._monitor

    @property
    def policy(self) -> AccessPolicy:
        return self._monitor.policy

    @property
    def history(self) -> HistoryRecorder | None:
        return self._history
