"""The client's one acceptance rule: ``threshold`` addressed senders agree.

Replies, notify pushes and transaction pushes all accept through a
:class:`Tally` (at ``f + 1``, or ``2f + 1`` for a read on the read-only
lane), so the rule of Section 4 — and every defence it needs
against Byzantine senders — is spelled once: only the senders a tally was
addressed to vote, each once per round; content is hashed on receipt and
a vote that does not hash to the digest it claims is dropped (the sender
keeps its slot) and reported with :class:`ForgedVote`; a round releases
once; undecided and delivered rounds are bounded.
"""

from __future__ import annotations

import collections
from typing import Any, Hashable, Iterable, Optional

from repro.replication.crypto import digest

__all__ = ["ForgedVote", "Tally"]


class ForgedVote(ValueError):
    """A vote whose content does not hash to the digest it claimed."""


class Tally:
    """``threshold``-of-``senders`` agreement on content digests, per round."""

    #: Undecided rounds kept; a new one evicts the oldest.  Correct senders
    #: complete a real round within one delivery round, faster than
    #: fabricated rounds can push it out.
    MAX_PENDING = 64
    #: Delivered rounds remembered, so a late copy never releases twice.
    DELIVERED_WINDOW = 256

    __slots__ = ("senders", "threshold", "_rounds", "_delivered")

    def __init__(self, senders: Iterable[Hashable], threshold: int) -> None:
        self.senders = frozenset(senders)
        self.threshold = threshold
        # round -> {sender: (content digest, content)}, oldest round first.
        self._rounds: collections.OrderedDict[Hashable, dict] = collections.OrderedDict()
        self._delivered: collections.OrderedDict[Hashable, None] = collections.OrderedDict()

    @property
    def pending(self) -> int:
        return len(self._rounds)

    def ballots(self, round_key: Hashable = None) -> int:
        """Votes counted so far in one undecided round."""
        return len(self._rounds.get(round_key, ()))

    def reachable(self, round_key: Hashable = None) -> bool:
        """Whether ``threshold`` can still agree in one undecided round:
        its largest agreeing pile plus the senders yet to vote."""
        ballots = self._rounds.get(round_key, {})
        piles = collections.Counter(cast for cast, _ in ballots.values())
        largest = max(piles.values(), default=0)
        return largest + len(self.senders) - len(ballots) >= self.threshold

    def vote(
        self,
        sender: Hashable,
        content: Any,
        *,
        claimed: Optional[str] = None,
        round_key: Hashable = None,
    ) -> Optional[tuple[Any, tuple[Hashable, ...]]]:
        """Count ``sender``'s vote for ``content`` in ``round_key``.

        Returns ``(content, voters)`` the one time ``threshold`` distinct
        senders agree, else ``None``.  Raises :class:`ForgedVote`, counting
        nothing, when ``content`` does not hash to a given ``claimed``.
        """
        if sender not in self.senders or round_key in self._delivered:
            return None
        ballots = self._rounds.get(round_key)
        if ballots is not None and sender in ballots:
            return None
        voted = digest(content)
        if claimed is not None and voted != claimed:
            raise ForgedVote(f"{sender!r} claimed {claimed!r} for content hashing to {voted!r}")
        if ballots is None:
            if len(self._rounds) >= self.MAX_PENDING:
                self._rounds.popitem(last=False)
            ballots = self._rounds[round_key] = {}
        ballots[sender] = (voted, content)
        voters = tuple(name for name, (cast, _) in ballots.items() if cast == voted)
        if len(voters) < self.threshold:
            return None
        del self._rounds[round_key]
        self._delivered[round_key] = None
        if len(self._delivered) > self.DELIVERED_WINDOW:
            self._delivered.popitem(last=False)
        return ballots[voters[0]][1], voters
