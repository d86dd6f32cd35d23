"""The matching relation ``m(entry, template)`` and formal-field binding.

An entry ``t`` matches a template ``t̄`` iff (Section 2.3):

1. they have the same type (same arity and compatible field types), and
2. every *defined* field of the template equals the corresponding field of
   the entry.

Exactly, :func:`matches` decides the relation as follows.

* **Operands.**  The left operand must be an :class:`Entry`, the right one a
  :class:`Template` or an :class:`Entry`; anything else (a Template on the
  left included) raises :class:`~repro.errors.MatchTypeError`.
* **An entry used as a pattern** reads as "exactly this tuple" (LINDA
  implementations accept entries in read positions, and the policies of
  Figs. 4, 5 and 8 look up concrete tuples that way).  Every field of an
  entry is defined by construction, so only the two rules for defined
  fields below apply to it.
* **Arity.**  Different arities never match.
* **Per field**, in order, stopping at the first field that fails:
  a wildcard (``ANY``) accepts any value; a :class:`Formal` accepts what its
  ``accepts`` admits (any value, or an instance of its declared type, with
  ``bool`` kept out of ``int``); a defined field is rejected when exactly
  one of the two values is a ``bool`` and is otherwise compared with
  ``entry_field == template_field``.
* **Consequences.**  At the top level ``True`` and ``1`` do not match (so
  binary-consensus proposals of 0/1 cannot match policies written for
  booleans), while ``1``, ``1.0``, ``0.0`` and ``-0.0`` keep Python's numeric
  equalities (``1 == 1.0``, ``0.0 == -0.0``).  Values nested inside a field
  compare with plain ``==`` only: ``("t", 1)`` matches ``("t", True)``.

Both operands and every field are dispatched with ``isinstance``, so a
subclass of :class:`Entry`, :class:`Template`, :class:`Formal` or
:class:`Wildcard` follows the same path as its base; the two field tuples
are read directly and walked in one loop, and no :class:`Template` is built
for an entry used as a pattern.

There is deliberately no per-template cache of a compiled predicate.  A
lazily filled slot on an :class:`Entry` or :class:`Template` would become
part of its pickle state, and so of ``canonical_bytes``: the digest of a
request that carries a template would depend on whether a replica had
matched it yet, which splits the replicas' digests.  Nor is there a
module-level memo: keyed by the template, it would hash the template's
fields on every call (the per-call work this loop exists to avoid) and grow
with every distinct template a process ever matches.
"""

from __future__ import annotations

from typing import Any, Mapping, NoReturn

from repro.errors import MatchTypeError
from repro.tuples.fields import Formal, Wildcard
from repro.tuples.tuple import Entry, Template

__all__ = ["matches", "bind"]


def _reject_candidate(candidate: Any) -> NoReturn:
    if isinstance(candidate, Template):
        raise MatchTypeError("left operand of matches() must be an Entry, got a Template")
    raise MatchTypeError(f"left operand of matches() must be an Entry, got {type(candidate).__name__}")


def _reject_pattern(pattern: Any) -> NoReturn:
    raise MatchTypeError(
        f"right operand of matches() must be a Template, got {type(pattern).__name__}"
    )


def matches(candidate: Any, pattern: Any) -> bool:
    """Return ``True`` iff entry ``candidate`` matches template ``pattern``."""
    if not isinstance(candidate, Entry):
        _reject_candidate(candidate)
    if not isinstance(pattern, (Template, Entry)):
        _reject_pattern(pattern)
    entry_fields = candidate._fields
    pattern_fields = pattern._fields
    if len(entry_fields) != len(pattern_fields):
        return False
    for entry_field, template_field in zip(entry_fields, pattern_fields):
        if isinstance(template_field, Wildcard):
            continue
        if isinstance(template_field, Formal):
            if template_field.accepts(entry_field):
                continue
            return False
        if (type(template_field) is bool) is not (type(entry_field) is bool) or not entry_field == template_field:
            return False
    return True


def bind(candidate: Any, pattern: Any) -> Mapping[str, Any] | None:
    """Return the formal-field bindings of a match, or ``None`` on mismatch.

    If ``candidate`` matches ``pattern``, the result maps each formal-field
    name of the template to the value found at the corresponding position
    of the entry (the "variable in a formal field is set to the value in the
    corresponding field" semantics of the paper).  The verdict is
    :func:`matches`'; this only reads the formal values off a match.
    """
    if not matches(candidate, pattern):
        return None
    return {
        template_field.name: entry_field
        for entry_field, template_field in zip(candidate.fields, pattern.fields)
        if isinstance(template_field, Formal)
    }
