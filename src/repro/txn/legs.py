"""The transaction leg model shared by every backend.

A *leg* is one staged tuple-space operation inside a transaction, kept as
plain wire-safe data so the same representation travels through the
client API (:meth:`~repro.api.space.Space.transact`), the single-group
``txn_exec`` fast path, and the cross-shard prepare/vote/decide protocol:

* ``("out", entry)`` — insert ``entry`` at commit;
* ``("rd", template)`` — the transaction *requires* a match and reads it
  (no match at vote time aborts the transaction — unlike a probe ``rdp``,
  a transactional read is a precondition);
* ``("in", template)`` — require a match and consume it at commit;
* ``("cas", template, entry)`` — pin the existing match (or its absence)
  and insert ``entry`` at commit iff none existed, with the usual
  ``(inserted, existing)`` result;
* ``("nix", template)`` — the transaction *requires* the absence of a
  match (a match at vote time aborts, carrying the matched entry in the
  abort reason) and locks the template's name so none can appear before
  the decision.  This is the building block that turns a wildcard-name
  ``cas`` into a cross-shard transaction: pin absence on every other
  shard, ``cas`` on the entry's own shard.

Policy is enforced **per leg**: each leg is authorized as the equivalent
non-transactional invocation (``rd``/``in`` map onto their probe forms
``rdp``/``inp``, exactly like the blocking reads and the notification
channel do), so a policy that denies a client's direct ``inp`` also
vetoes that client's transactional ``in`` — the PEO can veto any leg.

The resolve/apply split mirrors the commit protocol: :func:`resolve_legs`
authorizes every leg and *pins* the entries it matched (the vote), and
:func:`apply_legs` replays the pinned decisions against the space (the
commit).  Between the two, the caller guarantees stability — trivially on
the single-ordered-request fast path, via the lock table on the
cross-shard path.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import TupleSpaceError
from repro.policy.invocation import Invocation
from repro.tuples import Entry, Template, is_defined

__all__ = [
    "LEG_OPERATIONS",
    "Pin",
    "normalize_leg",
    "normalize_legs",
    "check_arguments",
    "leg_invocation",
    "leg_name",
    "leg_names",
    "resolve_legs",
    "apply_legs",
    "exact_template",
]

#: The operations a transaction may stage.
LEG_OPERATIONS = ("out", "rd", "in", "cas", "nix")

#: Marker distinguishing "pinned the absence of a match" (cas) from
#: "nothing to pin" (out) in a pin vector — wire-safe by construction.
NO_MATCH = "__txn-no-match__"


class Pin:
    """Namespace for pin-vector helpers (pins are plain data on the wire)."""

    NO_MATCH = NO_MATCH


def normalize_leg(leg: Any) -> tuple:
    """Validate one staged leg and return its canonical tuple form."""
    if not isinstance(leg, tuple) or not leg or leg[0] not in LEG_OPERATIONS:
        raise TupleSpaceError(
            f"malformed transaction leg {leg!r}; expected one of "
            f"{LEG_OPERATIONS} with its arguments"
        )
    operation = leg[0]
    if operation == "out":
        if len(leg) != 2 or not isinstance(leg[1], Entry):
            raise TupleSpaceError(f"transaction out leg needs one Entry, got {leg!r}")
    elif operation in ("rd", "in", "nix"):
        if len(leg) != 2 or not isinstance(leg[1], Template):
            raise TupleSpaceError(
                f"transaction {operation} leg needs one Template, got {leg!r}"
            )
    else:  # cas
        if len(leg) != 3 or not isinstance(leg[1], Template) or not isinstance(leg[2], Entry):
            raise TupleSpaceError(
                f"transaction cas leg needs (template, entry), got {leg!r}"
            )
    return tuple(leg)


def normalize_legs(legs: Sequence[Any]) -> tuple:
    """Validate a staged leg sequence (a transaction must stage something)."""
    if not legs:
        raise TupleSpaceError("a transaction must stage at least one leg")
    return tuple(normalize_leg(leg) for leg in legs)


#: The leg shape of each tuple-space operation's arguments.
_LEG_OF = {"out": "out", "rdp": "rd", "rd": "rd", "inp": "in", "in": "in", "cas": "cas"}
#: Where the staged legs sit among a leg-carrying request's arguments.
_LEGS_AT = {"txn_exec": (1, 0), "txn_vote": (4, 3)}
#: The commit-protocol steps, whose first argument is the transaction id.
_TXN_STEPS = ("txn_prepare", "txn_vote", "txn_decision", "txn_force", "txn_apply")


def check_arguments(operation: str, arguments: Any) -> None:
    """Raise :class:`TupleSpaceError` unless ``arguments`` has the shape
    ``operation`` takes: its leg's for a tuple-space operation (a read
    also takes an :class:`Entry`, as the tuple space does), staged legs
    for ``txn_exec``/``txn_vote``, a non-empty transaction id first for
    a commit-protocol step.  Other operations are not checked."""
    if operation not in _LEG_OF and operation not in _LEGS_AT and operation not in _TXN_STEPS:
        return
    try:
        if not isinstance(arguments, tuple):
            raise TypeError(operation)
        if operation in _TXN_STEPS and not (
            arguments and isinstance(arguments[0], tuple) and arguments[0]
        ):
            raise TypeError(operation)
        if operation in _LEGS_AT:
            arity, index = _LEGS_AT[operation]
            if len(arguments) != arity or not isinstance(arguments[index], tuple):
                raise TypeError(operation)
            normalize_legs(arguments[index])
        elif operation in _LEG_OF:
            leg = (_LEG_OF[operation],) + arguments
            if operation != "out" and arguments and isinstance(arguments[0], Entry):
                leg = (leg[0], arguments[0].to_template()) + arguments[1:]
            normalize_leg(leg)
    except (TupleSpaceError, TypeError):
        raise TupleSpaceError(f"malformed {operation} arguments {arguments!r}") from None


def leg_invocation(process: Any, leg: tuple) -> Invocation:
    """The non-transactional invocation a leg is policy-checked as."""
    operation = leg[0]
    if operation == "out":
        return Invocation(process=process, operation="out", arguments=(leg[1],))
    if operation in ("rd", "nix"):
        return Invocation(process=process, operation="rdp", arguments=(leg[1],))
    if operation == "in":
        return Invocation(process=process, operation="inp", arguments=(leg[1],))
    return Invocation(process=process, operation="cas", arguments=(leg[1], leg[2]))


def leg_name(field: Any) -> Optional[str]:
    """The concrete name a leg field addresses, or ``None`` for wildcard."""
    return field if is_defined(field) else None


def leg_names(leg: tuple) -> tuple:
    """The name fields a leg touches (``None`` marks a wildcard name).

    A ``cas`` leg touches both its template's and its entry's name — they
    are usually equal, but the lock table must cover both when not.
    """
    operation = leg[0]
    if operation == "out":
        return (leg_name(leg[1].fields[0]),)
    if operation in ("rd", "in", "nix"):
        return (leg_name(leg[1].fields[0]),)
    names = (leg_name(leg[1].fields[0]), leg_name(leg[2].fields[0]))
    return names if names[0] != names[1] else names[:1]


def exact_template(entry: Entry) -> Template:
    """A fully-defined template matching exactly ``entry``'s field values."""
    return Template(tuple(entry.fields))


def resolve_legs(monitor: Any, space: Any, process: Any, legs: Sequence[tuple]):
    """Authorize and pin every leg against ``space`` (the *vote*).

    Returns ``(ok, reason, pins)``.  ``reason`` is a wire-safe tuple
    naming the first refusing leg: ``("policy-denied", index, detail)``
    or ``("no-match", index)`` or ``("match", index, entry)``.  ``pins``
    is one slot per leg: the matched :class:`Entry` for ``rd``/``in``,
    the existing entry or :data:`NO_MATCH` for ``cas``, ``None`` for
    ``out``/``nix``.
    """
    pins: list[Any] = []
    for index, leg in enumerate(legs):
        decision = monitor.authorize(leg_invocation(process, leg), space)
        if not decision.allowed:
            return False, ("policy-denied", index, decision.reason), ()
        operation = leg[0]
        if operation == "out":
            pins.append(None)
        elif operation in ("rd", "in"):
            matched = space.rdp(leg[1])
            if matched is None:
                return False, ("no-match", index), ()
            pins.append(matched)
        elif operation == "nix":
            matched = space.rdp(leg[1])
            if matched is not None:
                # The matched entry rides in the reason: the owner was
                # authorized to rdp this template (checked above), and a
                # wildcard-cas driver needs the conflicting entry for its
                # ``(False, existing)`` answer.
                return False, ("match", index, matched), ()
            pins.append(None)
        else:  # cas
            existing = space.rdp(leg[1])
            pins.append(NO_MATCH if existing is None else existing)
    return True, None, tuple(pins)


def apply_legs(space: Any, legs: Sequence[tuple], pins: Sequence[Any]):
    """Replay the pinned decisions against ``space`` (the *commit*).

    Returns ``(results, inserted)`` — per-leg results in the order
    staged, plus the entries inserted (for notification fan-out).  The
    caller guarantees the pins still hold (single ordered request, or
    locks held since the vote).
    """
    results: list[Any] = []
    inserted: list[Entry] = []
    for leg, pin in zip(legs, pins):
        operation = leg[0]
        if operation == "out":
            space.out(leg[1])
            inserted.append(leg[1])
            results.append(leg[1])
        elif operation == "rd":
            results.append(pin)
        elif operation == "nix":
            results.append(None)
        elif operation == "in":
            removed = space.inp(exact_template(pin))
            results.append(removed if removed is not None else pin)
        else:  # cas
            if pin == NO_MATCH:
                space.out(leg[2])
                inserted.append(leg[2])
                results.append((True, None))
            else:
                results.append((False, pin))
    return tuple(results), tuple(inserted)
