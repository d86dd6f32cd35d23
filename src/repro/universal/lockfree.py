"""Algorithm 3 — uniform lock-free universal construction.

Every operation on the emulated object is *threaded*: represented as a
``⟨SEQ, pos, inv⟩`` tuple appended to a contiguous list in the PEATS with a
``cas``.  The Fig. 7 access policy guarantees the list is really a list
(at most one tuple per position, each position follows the previous one),
which yields a total order on the operations; every process replays the
list with the deterministic ``apply`` function, so the emulation is
linearizable (Theorem 6).

The construction is **uniform** — a handle only needs the shared space and
the object type, never the identity of the other processes — and
**lock-free**: of two concurrent ``cas`` attempts for the same position at
least one succeeds, but a slow process can lose every race and starve
(wait-freedom needs Algorithm 4's helping mechanism).
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

from repro.errors import UniversalConstructionError
from repro.peo.peats import PEATS
from repro.policy.library import SEQ, lock_free_universal_policy
from repro.tuples import Formal, entry, template
from repro.universal.object_type import InvocationFactory, ObjectInvocation, ObjectType

__all__ = ["LockFreeUniversalConstruction", "LockFreeHandle"]


class LockFreeUniversalConstruction:
    """Factory of per-process handles sharing one PEATS-backed invocation list."""

    def __init__(self, object_type: ObjectType, *, space: Any | None = None) -> None:
        self._object_type = object_type
        self._space = space if space is not None else PEATS(lock_free_universal_policy())

    @property
    def object_type(self) -> ObjectType:
        return self._object_type

    @property
    def space(self) -> Any:
        return self._space

    def handle(self, process: Hashable) -> "LockFreeHandle":
        """Create the handle through which ``process`` uses the emulated object."""
        return LockFreeHandle(self, process)

    def threaded_invocations(self) -> list[ObjectInvocation]:
        """Administrative view: the invocation list in threading order."""
        from repro.tuples import matches

        positions: dict[int, ObjectInvocation] = {}
        pattern = template(SEQ, Formal("pos"), Formal("inv"))
        for stored in self._space.snapshot():
            if matches(stored, pattern):
                positions[stored.fields[1]] = stored.fields[2]
        return [positions[pos] for pos in sorted(positions)]


class LockFreeHandle:
    """A single process's view of the emulated object (Algorithm 3).

    The handle keeps the local replica of the object state (``state``) and
    the position of the tail of the operation list it has replayed so far
    (``pos``); both start at their initial values (lines 2–3).
    """

    def __init__(self, construction: LockFreeUniversalConstruction, process: Hashable) -> None:
        self._construction = construction
        self._space = construction.space.bind(process)
        self._object_type = construction.object_type
        self._process = process
        self._state = construction.object_type.initial_state
        self._pos = 0
        self._new_invocation = InvocationFactory(process)
        self._statistics = {"invocations": 0, "cas_attempts": 0, "cas_wins": 0, "helped_replays": 0}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def process(self) -> Hashable:
        return self._process

    @property
    def state(self) -> Any:
        """The local replica of the emulated object's state."""
        return self._state

    @property
    def position(self) -> int:
        """Index of the last operation this handle has replayed."""
        return self._pos

    @property
    def statistics(self) -> dict[str, int]:
        return dict(self._statistics)

    def invoke(self, operation: str, *args: Any, max_attempts: int | None = None) -> Any:
        """Execute ``operation(*args)`` on the emulated object and return its reply.

        ``max_attempts`` bounds the number of positions tried (``None``
        means unbounded, the paper's semantics); it exists so tests can
        demonstrate that lock-freedom alone does not guarantee an individual
        bound in the presence of contention.
        """
        invocation = self._new_invocation(operation, *args)
        self._object_type.validate_invocation(invocation)
        self._statistics["invocations"] += 1
        attempts = 0
        # Lines 4–11: walk the list, replaying other processes' operations,
        # until our own invocation is threaded.
        while True:
            attempts += 1
            if max_attempts is not None and attempts > max_attempts:
                raise UniversalConstructionError(
                    f"invocation {invocation} not threaded after {max_attempts} attempts"
                )
            next_pos = self._pos + 1
            threaded = self._thread_at(next_pos, invocation)
            if threaded is None:
                # The cas was denied although no tuple occupies the position
                # (cannot happen to a rule-abiding process under the Fig. 7
                # policy, but a custom policy might); retry the same position.
                continue
            self._pos = next_pos
            self._state, reply = self._object_type.apply(self._state, threaded)
            if threaded == invocation:
                return reply
            self._statistics["helped_replays"] += 1

    def refresh(self) -> Any:
        """Replay any operations threaded by other processes (read-only catch-up)."""
        while True:
            found = self._space.rdp(template(SEQ, self._pos + 1, Formal("inv")))
            if found is None:
                return self._state
            self._pos += 1
            self._state, _ = self._object_type.apply(self._state, found.fields[2])

    # ------------------------------------------------------------------
    # Algorithm internals
    # ------------------------------------------------------------------

    def _thread_at(self, position: int, invocation: ObjectInvocation) -> Optional[ObjectInvocation]:
        """Try to thread ``invocation`` at ``position`` (line 6).

        Returns the invocation actually threaded at that position (ours on a
        successful ``cas``, the competitor's on a failed one), or ``None``
        when the position is still empty and the ``cas`` was denied.
        """
        self._statistics["cas_attempts"] += 1
        inserted, existing = self._space.cas(
            template(SEQ, position, Formal("einv")),
            entry(SEQ, position, invocation),
        )
        if inserted:
            self._statistics["cas_wins"] += 1
            return invocation
        if existing is not None:
            return existing.fields[2]
        found = self._space.rdp(template(SEQ, position, Formal("einv")))
        return None if found is None else found.fields[2]

    def __repr__(self) -> str:
        return (
            f"LockFreeHandle(process={self._process!r}, pos={self._pos}, "
            f"type={self._object_type.name!r})"
        )
