"""Access policies: ordered collections of rules with fail-safe defaults."""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.errors import PolicyEvaluationError
from repro.policy.invocation import Invocation
from repro.policy.rules import Rule

__all__ = ["AccessPolicy", "denial_kind"]

#: The three ways :meth:`AccessPolicy.evaluate` denies, as ``kind → fixed
#: reason prefix``.  What follows the prefix quotes rule names and the
#: messages of exceptions raised on the invocation's own arguments —
#: unbounded and caller-influenced, fit for logs but never for a label.
_DENIAL_PREFIXES = {
    "no-rule": "no rule of policy",
    "evaluation-error": "denied: condition evaluation failed for",
    "condition-false": "denied: no applicable rule's condition holds",
}


def denial_kind(reason: str) -> str:
    """The bounded kind of a denial ``reason`` (a safe metric label)."""
    for kind, prefix in _DENIAL_PREFIXES.items():
        if reason.startswith(prefix):
            return kind
    return "other"


class AccessPolicy:
    """A set of access rules guarding one shared-memory object.

    The paper's semantics (Section 3):

    * an invocation is **allowed** iff *some* rule whose invocation pattern
      matches it has a condition that evaluates to true;
    * an invocation that fits no rule is **denied** (fail-safe defaults);
    * by extension, we also deny when every applicable rule's condition is
      false, or when evaluating a condition raises — an error in the policy
      must never grant access.

    Policies are immutable once constructed; ``with_rule`` returns an
    extended copy, which the tests use to build attack variants.
    """

    def __init__(self, rules: Iterable[Rule], *, name: str = "policy") -> None:
        self._rules: tuple[Rule, ...] = tuple(rules)
        self.name = name
        seen: set[str] = set()
        for rule in self._rules:
            if rule.name in seen:
                raise ValueError(f"duplicate rule name {rule.name!r} in policy {name!r}")
            seen.add(rule.name)

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    def rules_for(self, operation: str) -> tuple[Rule, ...]:
        """Rules whose pattern is for ``operation``."""
        return tuple(rule for rule in self._rules if rule.operation == operation)

    def allowed_operations(self) -> frozenset[str]:
        """Names of operations that at least one rule may permit."""
        return frozenset(rule.operation for rule in self._rules)

    def evaluate(self, invocation: Invocation, state: Any) -> tuple[bool, Rule | None, str]:
        """Evaluate ``invocation`` against the policy.

        Returns ``(allowed, rule, reason)`` where ``rule`` is the first rule
        that granted the invocation (or ``None``), and ``reason`` is a short
        human-readable explanation of the decision.
        """
        applicable = [rule for rule in self._rules if rule.applies_to(invocation)]
        if not applicable:
            return False, None, (
                f"{_DENIAL_PREFIXES['no-rule']} {self.name!r} applies to operation "
                f"{invocation.operation!r} (fail-safe default: deny)"
            )
        evaluation_errors: list[str] = []
        for rule in applicable:
            try:
                if rule.condition.evaluate(invocation, state):
                    return True, rule, f"granted by rule {rule.name}"
            except PolicyEvaluationError as exc:
                evaluation_errors.append(f"{rule.name}: {exc}")
        if evaluation_errors:
            return False, None, (
                f"{_DENIAL_PREFIXES['evaluation-error']} "
                + "; ".join(evaluation_errors)
            )
        return False, None, (
            f"{_DENIAL_PREFIXES['condition-false']} ("
            + ", ".join(rule.name for rule in applicable)
            + ")"
        )

    def with_rule(self, rule: Rule) -> "AccessPolicy":
        """Return a new policy extended with ``rule``."""
        return AccessPolicy(self._rules + (rule,), name=self.name)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:
        return f"AccessPolicy({self.name!r}, rules=[{', '.join(r.name for r in self._rules)}])"
