"""The reference monitor.

The monitor is the trusted component (Anderson's reference monitor concept,
ref. [19] of the paper) that mediates every invocation on a policy-enforced
object.  In the replicated deployment of Fig. 2 one monitor instance runs
inside every replica, next to the tuple space; in the local deployment it
sits between the caller and the in-memory object.

The monitor is deterministic: its decision depends only on the invocation
and the object state it is given, which is what allows replicas to evaluate
policies independently and still agree.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable

from repro.policy.invocation import Invocation
from repro.policy.policy import AccessPolicy, denial_kind
from repro.policy.rules import Rule

__all__ = ["Decision", "ReferenceMonitor"]


@dataclasses.dataclass(frozen=True)
class Decision:
    """Outcome of a monitor evaluation."""

    allowed: bool
    invocation: Invocation
    rule: Rule | None
    reason: str

    @property
    def kind(self) -> str:
        """Bounded classification of ``reason`` — what metrics label by."""
        return denial_kind(self.reason)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.allowed


class ReferenceMonitor:
    """Evaluates invocations against an :class:`AccessPolicy`.

    The monitor keeps simple counters (grants, denials, per-process denials)
    that experiment E5 uses to report how many Byzantine attack attempts the
    policy rejected, plus an optional audit log of decisions.
    """

    def __init__(
        self,
        policy: AccessPolicy,
        *,
        audit: bool = False,
        state_provider: Callable[[], Any] | None = None,
    ) -> None:
        self._policy = policy
        self._audit = audit
        self._state_provider = state_provider
        self._lock = threading.Lock()
        self._granted = 0
        self._denied = 0
        self._denied_by_process: dict[Any, int] = {}
        self._log: list[Decision] = []

    @property
    def policy(self) -> AccessPolicy:
        return self._policy

    def authorize(self, invocation: Invocation, state: Any = None) -> Decision:
        """Evaluate ``invocation`` and record the decision.

        ``state`` is the current state of the protected object; if omitted
        and the monitor was built with a ``state_provider``, the provider is
        consulted.
        """
        if state is None and self._state_provider is not None:
            state = self._state_provider()
        allowed, rule, reason = self._policy.evaluate(invocation, state)
        decision = Decision(allowed=allowed, invocation=invocation, rule=rule, reason=reason)
        with self._lock:
            if allowed:
                self._granted += 1
            else:
                self._denied += 1
                self._denied_by_process[invocation.process] = (
                    self._denied_by_process.get(invocation.process, 0) + 1
                )
            if self._audit:
                self._log.append(decision)
        return decision

    # ------------------------------------------------------------------
    # Statistics and audit access
    # ------------------------------------------------------------------

    @property
    def granted_count(self) -> int:
        with self._lock:
            return self._granted

    @property
    def denied_count(self) -> int:
        with self._lock:
            return self._denied

    def denials_by_process(self) -> dict[Any, int]:
        with self._lock:
            return dict(self._denied_by_process)

    def audit_log(self) -> tuple[Decision, ...]:
        with self._lock:
            return tuple(self._log)

    def reset_statistics(self) -> None:
        with self._lock:
            self._granted = 0
            self._denied = 0
            self._denied_by_process.clear()
            self._log.clear()

    def __repr__(self) -> str:
        return (
            f"ReferenceMonitor(policy={self._policy.name!r}, "
            f"granted={self.granted_count}, denied={self.denied_count})"
        )
