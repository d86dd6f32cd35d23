"""Algorithm 2 — strong Byzantine consensus, binary and k-valued.

A process ``p_i`` first publishes its proposal as a ``⟨PROPOSE, p_i, v⟩``
tuple, then keeps reading the other processes' proposals until some value
has been proposed by at least ``t + 1`` processes (hence by at least one
correct process).  It then tries to commit that value with
``cas(⟨DECISION, ?d, *⟩, ⟨DECISION, v, S_v⟩)``; the access policy (Fig. 4)
only admits DECISION tuples whose justification set ``S_v`` really contains
``t + 1`` distinct processes whose PROPOSE tuples for ``v`` are in the
space.  Whoever loses the ``cas`` adopts the value it reads back.

Properties (Theorems 2–4):

* **binary** (``|V| = 2``): t-threshold with optimal resilience
  ``n >= 3t + 1``;
* **k-valued**: t-threshold with resilience ``n >= (k + 1) t + 1``, which is
  optimal (Theorem 4).

The algorithm is *not* uniform (processes must know ``P``) and *not*
wait-free (it needs ``n - t`` correct participants).
"""

from __future__ import annotations

from typing import Any, Collection, Generator, Hashable, Sequence

from repro.consensus.base import ConsensusObject, TerminationCondition, require_resilience
from repro.errors import TerminationError
from repro.peo.peats import PEATS
from repro.policy.library import DECISION, PROPOSE, strong_consensus_policy
from repro.tuples import ANY, Formal, entry, template

__all__ = ["StrongConsensus"]


class StrongConsensus(ConsensusObject):
    """A t-threshold strong consensus object over a PEATS.

    Parameters
    ----------
    processes:
        The set ``P`` of participating process identifiers.
    t:
        Maximum number of Byzantine processes tolerated.
    values:
        The value domain ``V``.  Defaults to binary ``(0, 1)``.
    space:
        The shared PEATS; when omitted a local PEATS guarded by the Fig. 4
        policy is created.
    enforce_resilience:
        When ``True`` (default) the constructor raises if
        ``n < (k + 1) t + 1``.  The resilience benchmarks construct objects
        below the bound on purpose and pass ``False``.
    """

    termination = TerminationCondition.T_THRESHOLD

    def __init__(
        self,
        processes: Collection[Hashable],
        t: int,
        *,
        values: Sequence[Any] = (0, 1),
        space: Any | None = None,
        enforce_resilience: bool = True,
    ) -> None:
        self._processes = tuple(processes)
        self._t = t
        self._values = tuple(values)
        if len(set(self._values)) != len(self._values):
            raise ValueError("consensus value domain must not contain duplicates")
        if enforce_resilience:
            require_resilience(
                len(self._processes),
                t,
                k=len(self._values),
                context=f"strong {len(self._values)}-valued consensus",
            )
        if space is None:
            space = PEATS(
                strong_consensus_policy(self._processes, t, values=self._values)
            )
        self._space = space

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

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
    def values(self) -> tuple[Any, ...]:
        return self._values

    # ------------------------------------------------------------------
    # Algorithm 2 (and its k-valued generalisation)
    # ------------------------------------------------------------------

    def propose(
        self, process: Hashable, value: Any, *, max_iterations: int = 100_000
    ) -> Any:
        """Blocking propose: drives :meth:`propose_steps` to completion.

        Raises :class:`~repro.errors.TerminationError` when the polling loop
        exceeds ``max_iterations`` rounds — the situation Theorem 4 predicts
        below the resilience bound.
        """
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
                    f"strong consensus did not terminate for process {process!r} "
                    f"after {max_iterations} polling rounds"
                )

    def propose_steps(self, process: Hashable, value: Any) -> Generator[None, None, Any]:
        """Stepwise Algorithm 2: yields once per polling round (lines 5–11)."""
        space = self._space.bind(process)
        # Line 2: publish the proposal.
        space.out(entry(PROPOSE, process, value))

        # Lines 3–4: one set S_v per value (generalised for k values).
        supporters: dict[Any, set[Hashable]] = {v: set() for v in self._values}
        classified: set[Hashable] = set()
        chosen_value: Any = None

        # Lines 5–11: poll until some value has t + 1 supporters.
        while chosen_value is None:
            for other in self._processes:
                if other in classified:
                    continue
                found = space.rdp(template(PROPOSE, other, Formal("v")))
                if found is None:
                    continue
                observed = found.fields[2]
                if observed in supporters:
                    supporters[observed].add(other)
                    classified.add(other)
                    if len(supporters[observed]) >= self._t + 1 and chosen_value is None:
                        chosen_value = observed
            if chosen_value is None:
                yield  # end of an unsuccessful polling round

        # Lines 12–14: try to commit the chosen value with its justification.
        justification = frozenset(supporters[chosen_value])
        inserted, existing = space.cas(
            template(DECISION, Formal("d"), ANY),
            entry(DECISION, chosen_value, justification),
        )
        if inserted:
            return chosen_value
        if existing is not None:
            return existing.fields[1]
        # The cas was denied by the policy (it can only happen to a process
        # that fabricated its justification, i.e. a Byzantine one); surface
        # whatever decision exists, if any, so misbehaving test harnesses do
        # not crash with an AttributeError.
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
