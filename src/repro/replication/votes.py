"""The ordering core's one vote store: every certificate is one threshold rule.

Castro and Liskov count every certificate alike, ``2f + 1`` (a *quorum*)
or ``f + 1`` (*weak*) matching messages from distinct replicas;
:class:`VoteStore`, the replica-side twin of the client's
:class:`~repro.replication.tally.Tally`, spells it once.  Prepares,
commits, checkpoints, state responses and view changes are ballots in one
flat table keyed by slot ``(kind, view, sequence)``.  Only the group's
replicas vote, once per slot: the first digest stands (the same digest
again refreshes the message), so spraying digests grows nothing.  Per
``(kind, sender)`` a new slot beyond the cap evicts that sender's own
lowest one: ``2 * log_window`` prepares and commits (the window's hard
ceiling), one checkpoint and one state response, 16 view changes.  The
store never hashes: it counts the digests the messages carry.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Iterator, Optional

__all__ = ["CHECKPOINT", "COMMIT", "PREPARE", "STATE", "VIEW_CHANGE", "VoteStore"]

PREPARE = "prepare"
COMMIT = "commit"
#: Slot ``(CHECKPOINT, 0, sequence)``; a state response is ``(STATE, 0,
#: sequence)``; both vote for a state digest.
CHECKPOINT = "checkpoint"
STATE = "state"
#: Slot ``(VIEW_CHANGE, new_view, 0)``, digest ``VIEW_CHANGE``: voters for
#: a view agree on the view alone.
VIEW_CHANGE = "view-change"
#: The kinds a stable checkpoint truncates.
_SEQUENCED = frozenset({PREPARE, COMMIT, CHECKPOINT, STATE})

Slot = tuple[str, int, int]


class VoteStore:
    """``f + 1`` / ``2f + 1`` agreement of the group's replicas, per slot."""

    __slots__ = ("senders", "weak", "quorum", "_caps", "_ballots", "_messages", "_held")

    def __init__(self, senders: Iterable[Hashable], f: int, log_window: int) -> None:
        self.senders = frozenset(senders)
        self.weak = f + 1
        self.quorum = 2 * f + 1
        window = 2 * log_window
        self._caps = {PREPARE: window, COMMIT: window, CHECKPOINT: 1, STATE: 1, VIEW_CHANGE: 16}
        self._ballots: dict[Slot, dict[Hashable, str]] = {}
        self._messages: dict[Slot, dict[Hashable, Any]] = {}
        # kind -> sender -> the slots holding that sender's ballots.
        self._held: dict[str, dict[Hashable, set[Slot]]] = {kind: {} for kind in self._caps}

    def vote(
        self,
        kind: str,
        view: int,
        sequence: int,
        sender: Hashable,
        digest: str,
        message: Any = None,
    ) -> bool:
        """Cast ``sender``'s ballot for ``digest``; whether it counts (new,
        or the same digest again).  A non-member, a second digest and a
        slot below all a full sender holds count nothing."""
        if sender not in self.senders:
            return False
        slot = (kind, view, sequence)
        ballots = self._ballots.get(slot)
        if ballots is not None and sender in ballots:
            if ballots[sender] != digest:
                return False
        else:
            held = self._held[kind].get(sender)
            if held is None:
                held = self._held[kind][sender] = set()
            elif len(held) >= self._caps[kind]:
                lowest = min(held)
                if slot < lowest:
                    return False
                self._forget(lowest, sender)
            held.add(slot)
            if ballots is None:
                ballots = self._ballots[slot] = {}
            ballots[sender] = digest
        if message is not None:
            self._messages.setdefault(slot, {})[sender] = message
        return True

    def voted(self, kind: str, view: int, sequence: int, sender: Hashable) -> bool:
        """Whether ``sender`` holds a ballot in the slot."""
        return sender in self._ballots.get((kind, view, sequence), ())

    def certified(
        self,
        kind: str,
        view: int,
        sequence: int,
        threshold: int,
        digest: Optional[str] = None,
        also: tuple[Hashable, ...] = (),
    ) -> Optional[str]:
        """The digest ``threshold`` distinct senders agree on in the slot,
        else ``None``; with ``digest``, that digest only, and the distinct
        senders ``also`` count for it whatever they cast."""
        ballots = self._ballots.get((kind, view, sequence), {})
        if len(ballots) + len(also) < threshold:
            return None
        casts = list(ballots.values())
        if digest is None:
            return next((cast for cast in casts if casts.count(cast) >= threshold), None)
        agree = casts.count(digest) + sum(ballots.get(sender) != digest for sender in also)
        return digest if agree >= threshold else None

    def voters(
        self, kind: str, view: int, sequence: int, digest: Optional[str] = None
    ) -> dict[Hashable, Any]:
        """``{sender: message}`` of the slot's ballots (for ``digest``
        only, when given), first ballot first."""
        slot = (kind, view, sequence)
        messages = self._messages.get(slot, {})
        return {
            sender: messages.get(sender)
            for sender, cast in self._ballots.get(slot, {}).items()
            if digest is None or cast == digest
        }

    def ballots(self, kind: str) -> Iterator[tuple[int, int, Hashable, str]]:
        """Every ballot of ``kind``, as ``(view, sequence, sender, digest)``."""
        for (slot_kind, view, sequence), ballots in self._ballots.items():
            if slot_kind == kind:
                for sender, cast in ballots.items():
                    yield view, sequence, sender, cast

    def truncate(self, below: int) -> None:
        """Forget the sequenced kinds' slots at or below ``below``."""
        self._keep(lambda kind, view, sequence: kind not in _SEQUENCED or sequence > below)

    def clear(self, kind: str, through_view: float = float("inf")) -> None:
        """Forget ``kind``'s slots at or below ``through_view`` (all by default)."""
        self._keep(lambda slot_kind, view, sequence: slot_kind != kind or view > through_view)

    def _keep(self, kept: Callable[[str, int, int], bool]) -> None:
        """Keep the slots ``kept`` names, and index what survives afresh."""
        self._ballots = {slot: ballots for slot, ballots in self._ballots.items() if kept(*slot)}
        self._messages = {slot: held for slot, held in self._messages.items() if kept(*slot)}
        self._held = {kind: {} for kind in self._caps}
        for slot, ballots in self._ballots.items():
            for sender in ballots:
                self._held[slot[0]].setdefault(sender, set()).add(slot)

    def _forget(self, slot: Slot, sender: Hashable) -> None:
        ballots = self._ballots[slot]
        del ballots[sender]
        self._messages.get(slot, {}).pop(sender, None)
        if not ballots:
            del self._ballots[slot]
            self._messages.pop(slot, None)
        self._held[slot[0]][sender].discard(slot)
