"""A one-shot rendezvous barrier over the PEATS.

Each participant announces its arrival with an ``⟨ARRIVE, p, phase⟩`` tuple;
the barrier access policy allows exactly one arrival per process per phase
(so a Byzantine process cannot inflate the count) and no removals (so it
cannot deflate it either).  A process passes the barrier once it observes
``n - t`` arrivals for the phase: waiting for more would allow ``t``
Byzantine processes to block the rendezvous forever by staying silent.
"""

from __future__ import annotations

from typing import Any, Collection, Hashable

from repro.errors import TerminationError
from repro.peo.peats import PEATS
from repro.policy.expressions import Condition
from repro.policy.invocation import Invocation
from repro.policy.policy import AccessPolicy
from repro.policy.rules import Rule
from repro.tuples import ANY, Entry, Formal, Template, entry, matches, template

__all__ = ["barrier_policy", "Barrier"]

ARRIVE = "ARRIVE"


def barrier_policy(processes: Collection[Hashable]) -> AccessPolicy:
    """Access policy of the barrier PEATS.

    * ``Rrd`` — anyone may read;
    * ``Rout`` — ``⟨ARRIVE, p, phase⟩`` may be inserted only by ``p`` itself,
      only for a non-negative integer phase, and only once per phase;
    * no removals, no ``cas`` (the barrier needs neither).
    """
    members = frozenset(processes)

    def rd_condition(invocation: Invocation, space_state: Any) -> bool:
        return invocation.arity == 1 and isinstance(invocation.arguments[0], (Template, Entry))

    def out_condition(invocation: Invocation, space_state: Any) -> bool:
        if invocation.arity != 1:
            return False
        new_entry = invocation.arguments[0]
        if not isinstance(new_entry, Entry) or new_entry.arity != 3:
            return False
        name, arriving, phase = new_entry.fields
        if name != ARRIVE:
            return False
        if arriving != invocation.process or arriving not in members:
            return False
        if not isinstance(phase, int) or isinstance(phase, bool) or phase < 0:
            return False
        return space_state.rdp(template(ARRIVE, arriving, phase)) is None

    return AccessPolicy(
        [
            Rule("Rrd", "rdp", Condition("any read", rd_condition)),
            Rule("Rrd_blocking", "rd", Condition("any read", rd_condition)),
            Rule(
                "Rout",
                "out",
                Condition("out(<ARRIVE, p, phase>) AND p == invoker, once per phase", out_condition),
            ),
        ],
        name="barrier",
    )


class Barrier:
    """An ``n``-process, ``t``-Byzantine-tolerant rendezvous barrier."""

    def __init__(
        self,
        processes: Collection[Hashable],
        t: int,
        *,
        space: Any | None = None,
    ) -> None:
        """``space`` may be any shared space offering ``bind(process)`` — a
        local :class:`~repro.peo.peats.PEATS` or a :class:`~repro.api.Space`
        from :func:`repro.api.connect` — so the same barrier runs over any
        deployment shape.  A local PEATS guarded by the barrier policy is
        created when omitted."""
        self._processes = tuple(processes)
        self._t = t
        if len(self._processes) <= t:
            raise ValueError("the barrier needs more processes than Byzantine faults")
        self._space = space if space is not None else PEATS(barrier_policy(self._processes))

    @property
    def space(self) -> Any:
        return self._space

    @property
    def quorum(self) -> int:
        """Arrivals needed to pass: ``n - t``."""
        return len(self._processes) - self._t

    # ------------------------------------------------------------------
    # Barrier API
    # ------------------------------------------------------------------

    def arrive(self, process: Hashable, phase: int = 0) -> Any:
        """Record ``process``'s arrival at ``phase`` (idempotent per phase)."""
        return self._space.bind(process).out(entry(ARRIVE, process, phase))

    def arrived_count(self, process: Hashable, phase: int = 0) -> int:
        """Number of distinct arrivals visible to ``process`` for ``phase``."""
        view = self._space.bind(process)
        count = 0
        for other in self._processes:
            if view.rdp(template(ARRIVE, other, phase)) is not None:
                count += 1
        return count

    def ready(self, process: Hashable, phase: int = 0) -> bool:
        """Whether the barrier for ``phase`` is passable (``n - t`` arrivals)."""
        return self.arrived_count(process, phase) >= self.quorum

    def await_steps(self, process: Hashable, phase: int = 0):
        """Generator: arrive, then yield once per polling round until ready."""
        self.arrive(process, phase)
        while not self.ready(process, phase):
            yield

    def await_(self, process: Hashable, phase: int = 0, *, max_iterations: int = 100_000) -> int:
        """Blocking wait: arrive and poll until ``n - t`` arrivals are visible."""
        steps = self.await_steps(process, phase)
        iterations = 0
        while True:
            try:
                next(steps)
            except StopIteration:
                return self.arrived_count(process, phase)
            iterations += 1
            if iterations > max_iterations:
                raise TerminationError(
                    f"barrier phase {phase} not reached after {max_iterations} rounds"
                )
