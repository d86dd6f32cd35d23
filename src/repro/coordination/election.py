"""Justified leader election.

Plain strong consensus cannot be used to elect a leader among ``n``
processes: every process proposes a process identifier, so ``|V| = n`` and
Theorem 3 would require ``n >= (n + 1) t + 1`` — impossible for ``t >= 1``.
The paper's default multivalued consensus (Section 5.4) is exactly the tool
for this situation: the elected leader is either backed by ``t + 1``
nominations (hence by a correct process) or the election yields ``⊥`` and a
deterministic fallback is applied.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Hashable, Mapping

from repro.consensus.default import DefaultConsensus
from repro.consensus.runner import ConsensusRun, run_consensus
from repro.policy.library import BOTTOM

__all__ = ["LeaderElection"]


class LeaderElection:
    """Elect a leader among ``n`` mutually distrustful processes.

    Parameters
    ----------
    processes:
        The participating processes (also the candidate pool).
    t:
        Maximum number of Byzantine processes (requires ``n >= 3t + 1``).
    fallback:
        Deterministic function applied to the nomination mapping when the
        underlying consensus returns ``⊥``.  Defaults to the smallest
        nominated candidate (by ``repr`` ordering, so mixed types work),
        which every correct process computes identically from the PROPOSE
        tuples visible in the space.
    space:
        Optional shared space offering ``bind(process)`` (a local PEATS or
        a :class:`~repro.api.Space` from :func:`repro.api.connect`); a local
        PEATS guarded by the Fig. 5 policy is created when omitted.
    """

    def __init__(
        self,
        processes: Collection[Hashable],
        t: int,
        *,
        fallback: Callable[[Mapping[Hashable, Any]], Any] | None = None,
        space: Any | None = None,
    ) -> None:
        self._processes = tuple(processes)
        self._t = t
        self._consensus = DefaultConsensus(self._processes, t, space=space)
        self._fallback = fallback if fallback is not None else self._smallest_candidate

    @staticmethod
    def _smallest_candidate(nominations: Mapping[Hashable, Any]) -> Any:
        return min(nominations.values(), key=repr)

    @property
    def consensus(self) -> DefaultConsensus:
        return self._consensus

    def nominate(self, process: Hashable, candidate: Any, *, max_iterations: int = 100_000) -> Any:
        """Nominate ``candidate`` on behalf of ``process`` and return the leader.

        Blocking variant for threaded use; the deterministic runners use
        :meth:`run` instead.
        """
        outcome = self._consensus.propose(process, candidate, max_iterations=max_iterations)
        return self._resolve(outcome)

    def run(
        self,
        nominations: Mapping[Hashable, Any],
        *,
        byzantine: Mapping[Hashable, Any] | None = None,
        max_rounds: int = 10_000,
    ) -> tuple[Any, ConsensusRun]:
        """Run a full election with the deterministic runner.

        Returns ``(leader, consensus_run)``.  ``leader`` is ``None`` when
        the election did not terminate (not enough participants).
        """
        run = run_consensus(
            self._consensus, dict(nominations), byzantine=byzantine, max_rounds=max_rounds
        )
        if not run.terminated:
            return None, run
        return self._resolve(run.decision(), nominations), run

    def _resolve(self, outcome: Any, nominations: Mapping[Hashable, Any] | None = None) -> Any:
        if outcome != BOTTOM:
            return outcome
        observed = nominations if nominations is not None else self._visible_nominations()
        if not observed:
            return None
        return self._fallback(observed)

    def _visible_nominations(self) -> dict[Hashable, Any]:
        """Nominations visible in the shared space (used by ``nominate``)."""
        from repro.policy.library import PROPOSE
        from repro.tuples import matches, template, Formal, ANY

        pattern = template(PROPOSE, ANY, Formal("v"))
        visible: dict[Hashable, Any] = {}
        for stored in self._consensus.space.snapshot():
            if matches(stored, pattern):
                visible[stored.fields[1]] = stored.fields[2]
        return visible
