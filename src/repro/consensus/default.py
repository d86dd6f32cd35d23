"""Default multivalued consensus (Section 5.4).

The algorithm is Algorithm 2 with three modifications:

* there is a supporter set ``S_v`` for *every distinct value* observed in a
  PROPOSE tuple (not only for a fixed binary domain);
* once ``n - t`` proposals have been read without any value reaching
  ``t + 1`` supporters, the process commits the default value ``⊥``;
* a ``⊥`` DECISION must carry, as its third field, a proof — the collection
  of all supporter sets — that the access policy (Fig. 5) checks: the sets
  cover at least ``n - t`` processes, none exceeds ``t`` members and every
  listed process really proposed the listed value.  This stops Byzantine
  processes from forcing ``⊥`` when a value was actually backed by ``t + 1``
  proposals.

Resilience is the optimal ``n >= 3t + 1`` (Theorem 5) even though the value
domain is unbounded, which is the point of the weaker "Default Strong
Validity" condition.
"""

from __future__ import annotations

from typing import Any, Collection, Generator, Hashable

from repro.consensus.base import ConsensusObject, TerminationCondition, require_resilience
from repro.errors import TerminationError
from repro.peo.peats import PEATS
from repro.policy.library import BOTTOM, DECISION, PROPOSE, default_consensus_policy
from repro.tuples import ANY, Formal, entry, template

__all__ = ["DefaultConsensus", "BOTTOM"]


class DefaultConsensus(ConsensusObject):
    """A t-threshold default multivalued consensus object (``n >= 3t + 1``)."""

    termination = TerminationCondition.T_THRESHOLD

    def __init__(
        self,
        processes: Collection[Hashable],
        t: int,
        *,
        space: Any | None = None,
        enforce_resilience: bool = True,
    ) -> None:
        self._processes = tuple(processes)
        self._t = t
        if enforce_resilience:
            require_resilience(
                len(self._processes), t, k=2, context="default multivalued consensus"
            )
        if space is None:
            space = PEATS(default_consensus_policy(self._processes, t))
        self._space = space

    @property
    def space(self) -> Any:
        return self._space

    @property
    def processes(self) -> tuple[Hashable, ...]:
        return self._processes

    @property
    def t(self) -> int:
        return self._t

    @property
    def bottom(self) -> Any:
        """The default decision value ``⊥``."""
        return BOTTOM

    # ------------------------------------------------------------------
    # Algorithm
    # ------------------------------------------------------------------

    def propose(
        self, process: Hashable, value: Any, *, max_iterations: int = 100_000
    ) -> Any:
        steps = self.propose_steps(process, value)
        iterations = 0
        while True:
            try:
                next(steps)
            except StopIteration as stop:
                return stop.value
            iterations += 1
            if iterations > max_iterations:
                steps.close()
                raise TerminationError(
                    f"default consensus did not terminate for process {process!r} "
                    f"after {max_iterations} polling rounds"
                )

    def propose_steps(self, process: Hashable, value: Any) -> Generator[None, None, Any]:
        """Stepwise default consensus (one yield per polling round)."""
        if value == BOTTOM:
            raise ValueError("processes may not propose the default value ⊥")
        space = self._space.bind(process)
        n = len(self._processes)
        threshold = self._t + 1
        quorum = n - self._t

        space.out(entry(PROPOSE, process, value))

        supporters: dict[Any, set[Hashable]] = {}
        classified: set[Hashable] = set()
        decision_value: Any = None
        justification: Any = None

        while decision_value is None:
            for other in self._processes:
                if other in classified:
                    continue
                found = space.rdp(template(PROPOSE, other, Formal("v")))
                if found is None:
                    continue
                observed = found.fields[2]
                supporters.setdefault(observed, set()).add(other)
                classified.add(other)
                if len(supporters[observed]) >= threshold and decision_value is None:
                    decision_value = observed
                    justification = frozenset(supporters[observed])
            if decision_value is not None:
                break
            if len(classified) >= quorum:
                # No value reached t + 1 supporters after reading n - t
                # proposals: commit ⊥ with the proof of what was observed.
                decision_value = BOTTOM
                justification = frozenset(
                    (observed, frozenset(group)) for observed, group in supporters.items() if group
                )
                break
            yield

        inserted, existing = space.cas(
            template(DECISION, Formal("d"), ANY),
            entry(DECISION, decision_value, justification),
        )
        if inserted:
            return decision_value
        if existing is not None:
            return existing.fields[1]
        already_decided = self.decision()
        if already_decided is not None:
            return already_decided
        from repro.errors import ConsensusError

        raise ConsensusError(
            f"cas denied for process {process!r} and no decision exists yet"
        )

    def decision(self) -> Any:
        """Administrative view of the decided value (``None`` if undecided)."""
        from repro.tuples import matches

        pattern = template(DECISION, Formal("d"), ANY)
        for stored in self._space.snapshot():
            if matches(stored, pattern):
                return stored.fields[1]
        return None
