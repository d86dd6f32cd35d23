"""Golden-fixture tests for the RL001–RL006 rule set.

Each rule has three fixtures under ``tests/lint_fixtures/``: a positive
file (known violations at known sites), a negative file (idiomatic clean
code) and a pragma file (the same defect, suppressed with a justified
``# repro-lint: disable=`` pragma).  Fixtures force themselves into a
rule's scope with ``# repro-lint: scope=RLxxx`` (RL003 uses ``role=``
markers instead) because their paths are not under ``src/repro``.
"""

import pathlib

from repro.lint import LintEngine

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"


def lint(select, *names):
    engine = LintEngine(select=[select])
    return engine.lint_paths([FIXTURES / name for name in names])


class TestRL001DeterminismPurity:
    def test_flags_every_ambience_leak(self):
        violations = lint("RL001", "rl001_bad.py")
        assert len(violations) == 6
        assert {v.rule for v in violations} == {"RL001"}
        messages = " ".join(v.message for v in violations)
        assert "time.time" in messages
        assert "random.random" in messages
        assert "threading.Thread" in messages
        assert "uuid.uuid4" in messages
        assert "unseeded Random" in messages
        assert "time.monotonic" in messages

    def test_seeded_rng_and_injected_clock_are_clean(self):
        assert lint("RL001", "rl001_good.py") == []

    def test_inline_and_standalone_pragmas_suppress(self):
        assert lint("RL001", "rl001_pragma.py") == []


class TestRL002GuardedTracer:
    def test_flags_unguarded_record_and_helper_calls(self):
        violations = lint("RL002", "rl002_bad.py")
        assert len(violations) == 2
        messages = [v.message for v in violations]
        assert any("events.record()" in m for m in messages)
        assert any("_event_flush" in m for m in messages)

    def test_enabled_guard_and_helper_body_are_clean(self):
        assert lint("RL002", "rl002_good.py") == []

    def test_pragma_suppresses(self):
        assert lint("RL002", "rl002_pragma.py") == []

    def test_flags_unguarded_flight_record_and_helper_calls(self):
        violations = lint("RL002", "rl002_local_bad.py")
        assert len(violations) == 2
        messages = [v.message for v in violations]
        assert any("events.record()" in m for m in messages)
        assert any("_event_note" in m for m in messages)

    def test_guarded_flight_calls_and_helper_body_are_clean(self):
        assert lint("RL002", "rl002_local_good.py") == []


class TestRL003CodecCompleteness:
    def test_flags_unregistered_and_stale_names(self):
        violations = lint("RL003", "rl003_messages.py", "rl003_codec_bad.py")
        assert len(violations) == 2
        messages = " ".join(v.message for v in violations)
        assert "'Pong'" in messages  # dataclass without a wire tag
        assert "'Stale'" in messages  # registration without a dataclass
        assert all(v.path.endswith("rl003_codec_bad.py") for v in violations)

    def test_matching_registry_is_clean(self):
        assert lint("RL003", "rl003_messages.py", "rl003_codec_good.py") == []

    def test_single_sided_run_is_silently_skipped(self):
        assert lint("RL003", "rl003_messages.py") == []

    def test_unregistered_notify_message_is_flagged(self):
        # The notify-channel shape: RegisterWaiter/CancelWaiter round-trip
        # but the push itself (Notify) never got a wire tag.
        violations = lint(
            "RL003", "rl003_notify_messages.py", "rl003_notify_codec_bad.py"
        )
        assert len(violations) == 1
        assert "'Notify'" in violations[0].message
        assert violations[0].path.endswith("rl003_notify_codec_bad.py")

    def test_unregistered_txn_message_is_flagged(self):
        # The transaction-protocol shape: prepare/vote/decision round-trip
        # but the apply acknowledgement (TxnAck) never got a wire tag.
        violations = lint(
            "RL003", "rl003_txn_messages.py", "rl003_txn_codec_bad.py"
        )
        assert len(violations) == 1
        assert "'TxnAck'" in violations[0].message
        assert violations[0].path.endswith("rl003_txn_codec_bad.py")


class TestRL004MetricNameConsistency:
    def test_flags_dynamic_malformed_conflicting_and_near_miss_names(self):
        violations = lint("RL004", "rl004_bad.py")
        assert len(violations) == 4
        messages = " ".join(v.message for v in violations)
        assert "string literal" in messages
        assert "'Bad-Name'" in messages
        assert "one family, one kind" in messages
        assert "within one edit" in messages

    def test_literal_wellformed_names_are_clean(self):
        assert lint("RL004", "rl004_good.py") == []

    def test_pragma_suppresses(self):
        assert lint("RL004", "rl004_pragma.py") == []


class TestRL005HandlerContainment:
    def test_flags_raw_handler_invocation(self):
        violations = lint("RL005", "rl005_bad.py")
        assert len(violations) == 1
        assert "handler" in violations[0].message

    def test_try_except_and_guarded_deferral_are_clean(self):
        assert lint("RL005", "rl005_good.py") == []

    def test_pragma_suppresses(self):
        assert lint("RL005", "rl005_pragma.py") == []


class TestRL006BoundedCollections:
    def test_flags_unpruned_growth(self):
        violations = lint("RL006", "rl006_bad.py")
        assert len(violations) == 2
        attrs = " ".join(v.message for v in violations)
        assert "_pending" in attrs
        assert "_log" in attrs

    def test_pruned_swapped_and_init_growth_are_clean(self):
        assert lint("RL006", "rl006_good.py") == []

    def test_pragma_with_multiline_justification_suppresses(self):
        assert lint("RL006", "rl006_pragma.py") == []


class TestEngineSurface:
    def test_select_other_rule_sees_nothing(self):
        # The RL001 fixture has no event-log calls: selecting RL002 over it
        # must produce nothing even though the file is full of findings.
        assert lint("RL002", "rl001_bad.py") == []

    def test_violations_sort_stably_and_render(self):
        violations = lint("RL001", "rl001_bad.py")
        assert violations == sorted(
            violations, key=lambda v: (v.path, v.line, v.rule)
        )
        rendered = violations[0].render()
        assert "RL001" in rendered and ":" in rendered

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        violations = LintEngine().lint_paths([bad])
        assert len(violations) == 1
        assert violations[0].rule == "RL000"
