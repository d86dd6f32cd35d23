"""Unit tests for the matching relation and formal-field binding, and an
oracle property test against the per-field reference definition."""

from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MatchTypeError
from repro.tuples import ANY, Entry, Formal, Template, Wildcard, bind, entry, matches, template


class TestMatches:
    def test_exact_match(self):
        assert matches(entry("A", 1), template("A", 1))

    def test_mismatch_on_value(self):
        assert not matches(entry("A", 1), template("A", 2))

    def test_mismatch_on_arity(self):
        assert not matches(entry("A", 1), template("A", 1, 2))

    def test_wildcard_matches_anything(self):
        assert matches(entry("A", 1), template("A", ANY))
        assert matches(entry("A", "x"), template("A", ANY))
        assert matches(entry("A", frozenset({3})), template("A", ANY))

    def test_formal_matches_and_respects_type(self):
        assert matches(entry("A", 1), template("A", Formal("v")))
        assert matches(entry("A", 1), template("A", Formal("v", int)))
        assert not matches(entry("A", "1"), template("A", Formal("v", int)))

    def test_bool_and_int_are_distinct(self):
        assert not matches(entry("A", True), template("A", 1))
        assert not matches(entry("A", 1), template("A", True))
        assert matches(entry("A", True), template("A", True))

    def test_entry_accepted_as_pattern(self):
        assert matches(entry("A", 1), entry("A", 1))
        assert not matches(entry("A", 1), entry("A", 2))

    def test_template_not_accepted_as_candidate(self):
        with pytest.raises(MatchTypeError):
            matches(template("A", ANY), template("A", ANY))

    def test_non_tuple_operands_rejected(self):
        with pytest.raises(MatchTypeError):
            matches("A", template("A"))
        with pytest.raises(MatchTypeError):
            matches(entry("A"), "A")

    def test_multi_field_paper_example(self):
        # The strong-consensus PROPOSE lookup: ⟨PROPOSE, p_j, ?v⟩.
        proposal = entry("PROPOSE", 2, 1)
        assert matches(proposal, template("PROPOSE", 2, Formal("v")))
        assert not matches(proposal, template("PROPOSE", 3, Formal("v")))

    @pytest.mark.parametrize(
        "stored, wanted", [(1, 1.0), (1.0, 1), (0, -0.0), (0.0, -0.0), (-0.0, 0.0)]
    )
    def test_numbers_keep_their_equalities_at_the_top_level(self, stored, wanted):
        assert matches(entry("N", stored), template("N", wanted))
        assert matches(entry("N", stored), entry("N", wanted))

    @pytest.mark.parametrize("stored, wanted", [(True, 1), (1, True), (False, 0), (True, 1.0)])
    def test_bool_never_matches_a_number_at_the_top_level(self, stored, wanted):
        assert not matches(entry("N", stored), template("N", wanted))
        assert not matches(entry("N", stored), entry("N", wanted))

    def test_nested_values_compare_with_plain_equality(self):
        assert matches(entry("N", ("t", 1)), template("N", ("t", True)))
        assert matches(entry("N", ("t", True)), entry("N", ("t", 1)))

    def test_an_entry_pattern_builds_no_template(self, count_calls):
        built = count_calls(Template, "__init__")
        assert matches(entry("A", 1, "x"), entry("A", 1, "x"))
        assert not matches(entry("A", 1, "x"), entry("A", True, "x"))
        assert built == []


class TestBind:
    def test_bind_returns_formal_values(self):
        bindings = bind(entry("PROPOSE", 2, 1), template("PROPOSE", 2, Formal("v")))
        assert bindings == {"v": 1}

    def test_bind_multiple_formals(self):
        bindings = bind(
            entry("SEQ", 4, "op"), template("SEQ", Formal("pos"), Formal("inv"))
        )
        assert bindings == {"pos": 4, "inv": "op"}

    def test_bind_returns_none_on_mismatch(self):
        assert bind(entry("A", 1), template("B", Formal("v"))) is None

    def test_bind_without_formals_is_empty(self):
        assert bind(entry("A", 1), template("A", ANY)) == {}

    def test_bind_is_the_formal_field_semantics_of_the_paper(self):
        # "The variable in a formal field is set to the value in the
        # corresponding field of the entry matched to the template."
        decision = entry("DECISION", "blue")
        bindings = bind(decision, template("DECISION", Formal("d")))
        assert bindings["d"] == "blue"


# ----------------------------------------------------------------------
# Oracle: the relation as defined field by field
# ----------------------------------------------------------------------


def _reference_entry(candidate: Any) -> Entry:
    if isinstance(candidate, Entry):
        return candidate
    if isinstance(candidate, Template):
        raise MatchTypeError("left operand of matches() must be an Entry, got a Template")
    raise MatchTypeError(f"left operand of matches() must be an Entry, got {type(candidate).__name__}")


def _reference_template(candidate: Any) -> Template:
    if isinstance(candidate, Template):
        return candidate
    if isinstance(candidate, Entry):
        return candidate.to_template()
    raise MatchTypeError(
        f"right operand of matches() must be a Template, got {type(candidate).__name__}"
    )


def _reference_field(entry_field: Any, template_field: Any) -> bool:
    if isinstance(template_field, Wildcard):
        return True
    if isinstance(template_field, Formal):
        return template_field.accepts(entry_field)
    if isinstance(template_field, bool) != isinstance(entry_field, bool):
        return False
    return entry_field == template_field


def reference_matches(candidate: Any, pattern: Any) -> bool:
    candidate_entry = _reference_entry(candidate)
    pattern_template = _reference_template(pattern)
    if candidate_entry.arity != pattern_template.arity:
        return False
    return all(
        _reference_field(ef, tf)
        for ef, tf in zip(candidate_entry.fields, pattern_template.fields)
    )


def reference_bind(candidate: Any, pattern: Any):
    candidate_entry = _reference_entry(candidate)
    pattern_template = _reference_template(pattern)
    if not reference_matches(candidate_entry, pattern_template):
        return None
    return {
        tf.name: ef
        for ef, tf in zip(candidate_entry.fields, pattern_template.fields)
        if isinstance(tf, Formal)
    }


class _Row(Entry):
    """An Entry subclass: must follow the same path as Entry."""

    __slots__ = ()


class _Pattern(Template):
    """A Template subclass: must follow the same path as Template."""

    __slots__ = ()


class _Named(Formal):
    """A Formal subclass: must follow the same path as Formal."""

    __slots__ = ()


VALUES = st.sampled_from(
    [0, 1, True, False, 1.0, 0.0, -0.0, "a", b"a", None, ("t", 1), ("t", True), frozenset({1})]
)
FORMAL_TYPES = st.sampled_from([None, int, bool, float, str, object])
#: A formal is drawn as (kind, type) and named after its position, so the
#: names of one template are unique.
PATTERN_FIELDS = st.one_of(
    VALUES,
    st.just(ANY),
    st.tuples(st.sampled_from([Formal, _Named]), FORMAL_TYPES).map(lambda kind: ("formal", kind)),
)


def _pattern(fields: list) -> list:
    return [
        field[1][0](f"v{position}", field[1][1])
        if isinstance(field, tuple) and field[:1] == ("formal",)
        else field
        for position, field in enumerate(fields)
    ]


ENTRIES = st.tuples(
    st.sampled_from([Entry, _Row]), st.lists(VALUES, min_size=1, max_size=4)
).map(lambda drawn: drawn[0](drawn[1]))
TEMPLATES = st.tuples(
    st.sampled_from([Template, _Pattern]), st.lists(PATTERN_FIELDS, min_size=1, max_size=4)
).map(lambda drawn: drawn[0](_pattern(drawn[1])))
NOT_TUPLES = st.sampled_from(["A", 1, None, ("A",), ANY])
CANDIDATES = st.one_of(ENTRIES, ENTRIES, ENTRIES, TEMPLATES, NOT_TUPLES)
PATTERNS = st.one_of(TEMPLATES, TEMPLATES, ENTRIES, NOT_TUPLES)


def _outcome(relation, candidate, pattern):
    try:
        return "returned", relation(candidate, pattern)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raised", type(exc), str(exc)


@settings(max_examples=1_000, deadline=None)
@given(CANDIDATES, PATTERNS)
def test_matches_and_bind_agree_with_the_reference(candidate, pattern):
    assert _outcome(matches, candidate, pattern) == _outcome(reference_matches, candidate, pattern)
    assert _outcome(bind, candidate, pattern) == _outcome(reference_bind, candidate, pattern)


@settings(max_examples=500, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=4), st.lists(VALUES, min_size=1, max_size=4))
def test_same_arity_entries_agree_with_the_reference(stored, wanted):
    # Equal arities reach the field loop far more often than free draws do.
    wanted = (wanted * 4)[: len(stored)]
    for pattern in (Entry(wanted), Template(wanted)):
        assert matches(Entry(stored), pattern) is reference_matches(Entry(stored), pattern)
