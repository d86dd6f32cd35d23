"""Algorithm 1 — weak Byzantine consensus from a single ``cas``.

A process proposes by attempting ``cas(⟨DECISION, ?d⟩, ⟨DECISION, v⟩)``:

* if the ``cas`` succeeds, its own value ``v`` is the decision;
* if it fails, a DECISION tuple already exists and the value read through
  the formal field ``?d`` is the decision.

The access policy (Fig. 3) only allows this ``cas`` shape and no removals,
so the first inserted DECISION tuple is permanent — the object is
*persistent* in the sense of Attie [10] — which yields Agreement.  The
algorithm is uniform (processes need not know each other), multivalued and
wait-free.
"""

from __future__ import annotations

from typing import Any, Generator, Hashable

from repro.consensus.base import ConsensusObject, TerminationCondition
from repro.peo.peats import PEATS
from repro.policy.library import DECISION, weak_consensus_policy
from repro.tuples import Formal, entry, template

__all__ = ["WeakConsensus"]


class WeakConsensus(ConsensusObject):
    """A wait-free, uniform, multivalued weak consensus object.

    Parameters
    ----------
    space:
        The shared space (anything offering ``bind(process)``: a PEATS or a
        :func:`repro.api.connect` handle).  When omitted, a fresh local
        PEATS guarded by the Fig. 3 policy is created — the common case for
        tests and examples.
    """

    termination = TerminationCondition.WAIT_FREE

    def __init__(self, space: Any | None = None) -> None:
        self._space = space if space is not None else PEATS(weak_consensus_policy())

    @property
    def space(self) -> Any:
        return self._space

    @classmethod
    def create(cls) -> "WeakConsensus":
        """Create a weak consensus object over a fresh policy-enforced space."""
        return cls(PEATS(weak_consensus_policy()))

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------

    def propose(self, process: Hashable, value: Any, *, max_iterations: int = 1) -> Any:
        """Propose ``value``; returns the (unique) consensus value."""
        inserted, existing = self._space.bind(process).cas(
            template(DECISION, Formal("d")), entry(DECISION, value)
        )
        if inserted:
            return value
        # The failed cas "reads" the DECISION tuple: ?d binds to its value.
        return existing.fields[1]

    def propose_steps(self, process: Hashable, value: Any) -> Generator[None, None, Any]:
        """Stepwise variant; Algorithm 1 has a single step."""
        yield
        return self.propose(process, value)

    def decision(self) -> Any:
        """Return the decided value, or ``None`` if no process proposed yet.

        Uses the space snapshot (administrative view) rather than ``rdp``
        because the Fig. 3 policy deliberately allows no read operations.
        """
        from repro.tuples import matches

        pattern = template(DECISION, Formal("d"))
        for stored in self._space.snapshot():
            if matches(stored, pattern):
                return stored.fields[1]
        return None
