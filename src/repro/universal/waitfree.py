"""Algorithm 4 — wait-free universal construction.

Like Algorithm 3, every operation is threaded into a contiguous list of
``SEQ`` tuples that all processes replay.  Wait-freedom is obtained with a
*helping mechanism*:

* a process first announces its invocation with an ``⟨ANN, i, inv⟩`` tuple;
* the *preferred* process for list position ``pos`` is the one with index
  ``pos mod n``;
* the access policy (Fig. 8) refuses to thread anything other than the
  preferred process's announced invocation at ``pos`` while that
  announcement is outstanding, so every correct process's announced
  invocation is threaded after at most ``n`` further positions — either by
  itself or by a helper — regardless of how the other processes behave
  (Lemma 5 / Theorem 7).

Consequently the construction is **not uniform**: processes must know the
ordered process list in order to compute the preferred index and to help.

Implementation note (clarifying the paper's pseudocode): the ``cas`` of
line 16 can be *denied* by the policy when the preferred process announces
between the check of line 9 and the ``cas`` — an asynchrony race the
pseudocode leaves implicit.  In that case the handle retries the same
position (it neither advances ``pos`` nor re-applies a stale invocation),
which preserves both linearizability and wait-freedom: the retry will
observe the announcement and help.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Sequence

from repro.errors import UniversalConstructionError
from repro.peo.peats import PEATS
from repro.policy.library import ANN, SEQ, wait_free_universal_policy
from repro.tuples import ANY, Formal, entry, template
from repro.universal.object_type import InvocationFactory, ObjectInvocation, ObjectType

__all__ = ["WaitFreeUniversalConstruction", "WaitFreeHandle"]


class WaitFreeUniversalConstruction:
    """Factory of per-process handles for the wait-free construction."""

    def __init__(
        self,
        object_type: ObjectType,
        processes: Sequence[Hashable],
        *,
        space: Any | None = None,
    ) -> None:
        self._object_type = object_type
        self._processes = tuple(processes)
        if len(set(self._processes)) != len(self._processes):
            raise ValueError("process identifiers must be unique")
        if not self._processes:
            raise ValueError("the wait-free construction needs at least one process")
        self._index_of = {p: i for i, p in enumerate(self._processes)}
        if space is None:
            space = PEATS(wait_free_universal_policy(self._processes))
        self._space = space

    @property
    def object_type(self) -> ObjectType:
        return self._object_type

    @property
    def space(self) -> Any:
        return self._space

    @property
    def processes(self) -> tuple[Hashable, ...]:
        return self._processes

    def index_of(self, process: Hashable) -> int:
        return self._index_of[process]

    def handle(self, process: Hashable) -> "WaitFreeHandle":
        if process not in self._index_of:
            raise ValueError(f"unknown process {process!r}")
        return WaitFreeHandle(self, process)

    def threaded_invocations(self) -> list[ObjectInvocation]:
        """Administrative view: the invocation list in threading order."""
        from repro.tuples import matches

        positions: dict[int, ObjectInvocation] = {}
        pattern = template(SEQ, Formal("pos"), Formal("inv"))
        for stored in self._space.snapshot():
            if matches(stored, pattern):
                positions[stored.fields[1]] = stored.fields[2]
        return [positions[pos] for pos in sorted(positions)]


class WaitFreeHandle:
    """A single process's view of the emulated object (Algorithm 4)."""

    def __init__(self, construction: WaitFreeUniversalConstruction, process: Hashable) -> None:
        self._construction = construction
        self._space = construction.space.bind(process)
        self._object_type = construction.object_type
        self._process = process
        self._index = construction.index_of(process)
        self._n = len(construction.processes)
        self._state = construction.object_type.initial_state
        self._pos = 0
        self._new_invocation = InvocationFactory(process)
        self._statistics = {
            "invocations": 0,
            "cas_attempts": 0,
            "cas_wins": 0,
            "helps_given": 0,
            "helped_replays": 0,
            "denied_retries": 0,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def process(self) -> Hashable:
        return self._process

    @property
    def index(self) -> int:
        return self._index

    @property
    def state(self) -> Any:
        return self._state

    @property
    def position(self) -> int:
        return self._pos

    @property
    def statistics(self) -> dict[str, int]:
        return dict(self._statistics)

    def invoke(self, operation: str, *args: Any, max_attempts: int | None = None) -> Any:
        """Execute ``operation(*args)`` on the emulated object (wait-free)."""
        invocation = self._new_invocation(operation, *args)
        self._object_type.validate_invocation(invocation)
        self._statistics["invocations"] += 1

        # Line 4: announce the invocation.
        self._space.out(entry(ANN, self._index, invocation))

        reply: Any = None
        attempts = 0
        # Lines 5–21: walk the list until our invocation is the one executed.
        while True:
            attempts += 1
            if max_attempts is not None and attempts > max_attempts:
                raise UniversalConstructionError(
                    f"invocation {invocation} not threaded after {max_attempts} attempts"
                )
            next_pos = self._pos + 1
            threaded = self._resolve_position(next_pos, invocation)
            if threaded is None:
                # Denied cas while the position is still empty (see module
                # docstring); retry the same position.
                self._statistics["denied_retries"] += 1
                continue
            self._pos = next_pos
            self._state, current_reply = self._object_type.apply(self._state, threaded)
            if threaded == invocation:
                reply = current_reply
                break
            self._statistics["helped_replays"] += 1

        # Line 22: withdraw the announcement.
        self._space.inp(template(ANN, self._index, invocation))
        return reply

    def refresh(self) -> Any:
        """Replay operations threaded by others without invoking anything."""
        while True:
            found = self._space.rdp(template(SEQ, self._pos + 1, Formal("inv")))
            if found is None:
                return self._state
            self._pos += 1
            self._state, _ = self._object_type.apply(self._state, found.fields[2])

    # ------------------------------------------------------------------
    # Algorithm internals
    # ------------------------------------------------------------------

    def _resolve_position(
        self, position: int, invocation: ObjectInvocation
    ) -> Optional[ObjectInvocation]:
        """Determine the invocation threaded at ``position`` (lines 8–19).

        Returns that invocation, or ``None`` if it cannot be determined yet
        (policy denial while the position is still empty).
        """
        # Line 8: is the position already occupied?
        found = self._space.rdp(template(SEQ, position, Formal("einv")))
        if found is not None:
            return found.fields[2]

        preferred = position % self._n
        to_thread = invocation
        helping = False
        if self._index != preferred:
            announced = self._space.rdp(template(ANN, preferred, Formal("tinv")))
            if announced is not None:
                announced_invocation = announced.fields[2]
                already_threaded = self._space.rdp(template(SEQ, ANY, announced_invocation))
                if already_threaded is None:
                    # Lines 9–12: the preferred process needs help.
                    to_thread = announced_invocation
                    helping = True

        # Lines 16–18: try to thread ``to_thread`` at ``position``.
        self._statistics["cas_attempts"] += 1
        inserted, existing = self._space.cas(
            template(SEQ, position, Formal("einv")),
            entry(SEQ, position, to_thread),
        )
        if inserted:
            self._statistics["cas_wins"] += 1
            if helping:
                self._statistics["helps_given"] += 1
            return to_thread
        if existing is not None:
            return existing.fields[2]
        # Denied: check once more whether someone filled the position in the
        # meantime; otherwise report "unknown" so the caller retries.
        found = self._space.rdp(template(SEQ, position, Formal("einv")))
        return None if found is None else found.fields[2]

    def __repr__(self) -> str:
        return (
            f"WaitFreeHandle(process={self._process!r}, index={self._index}, "
            f"pos={self._pos}, type={self._object_type.name!r})"
        )
