"""Post-mortem doctor: dump merging, timeline ordering, diagnosis rules
and the CLI surface (text and JSON, file output, exit codes)."""

from __future__ import annotations

import json

import pytest

from repro.obs import EventLog
from repro.obs.doctor import (
    build_timeline,
    diagnose,
    load_dump,
    main,
    merge_dumps,
    render_text,
    timeline_for_key,
)


def _vote(node, t, sequence, digest, voter, seq, **fields):
    return {
        "kind": "checkpoint-vote", "t": t, "sequence": sequence,
        "digest": digest, "voter": voter, "seq": seq, "node": node, **fields,
    }


def _node_dump(node, events, *, recorded=None, dropped=0):
    return {
        "node": node,
        "capacity": 512,
        "recorded": recorded if recorded is not None else len(events),
        "dropped": dropped,
        "events": events,
    }


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------


class TestMerge:
    def test_overlapping_dumps_of_one_node_deduplicate_by_seq(self):
        first = _node_dump(
            "r0",
            [{"kind": "execute", "t": 1.0, "seq": 0}, {"kind": "execute", "t": 2.0, "seq": 1}],
        )
        second = _node_dump(
            "r0",
            [{"kind": "execute", "t": 2.0, "seq": 1}, {"kind": "execute", "t": 3.0, "seq": 2}],
            recorded=3,
        )
        merged = merge_dumps([first, second])
        assert [event["seq"] for event in merged["r0"]["events"]] == [0, 1, 2]
        assert merged["r0"]["recorded"] == 3

    def test_full_and_single_node_shapes_both_merge(self):
        recorder = EventLog()
        recorder.record("execute", "a", 1.0, sequence=1)
        recorder.record("execute", "b", 2.0, sequence=2)
        merged = merge_dumps([recorder.dump(), recorder.dump_node("a")])
        assert sorted(merged) == ["a", "b"]
        assert len(merged["a"]["events"]) == 1

    def test_partial_dumps_keep_max_drop_accounting(self):
        lossy = _node_dump("r0", [], recorded=900, dropped=400)
        fresh = _node_dump("r0", [{"kind": "execute", "t": 1.0, "seq": 899}])
        merged = merge_dumps([fresh, lossy])
        assert merged["r0"]["dropped"] == 400
        assert merged["r0"]["recorded"] == 900

    def test_timeline_orders_by_time_then_node_then_seq(self):
        merged = merge_dumps([
            _node_dump("b", [{"kind": "execute", "t": 1.0, "seq": 0}]),
            _node_dump("a", [{"kind": "execute", "t": 1.0, "seq": 0},
                             {"kind": "reply", "t": 0.5, "seq": 1}]),
        ])
        timeline = build_timeline(merged)
        assert [(e["t"], e["node"]) for e in timeline] == [
            (0.5, "a"), (1.0, "a"), (1.0, "b"),
        ]

    def test_timeline_for_key_matches_tuple_and_list_spellings(self):
        merged = merge_dumps([
            _node_dump("c", [{"kind": "submit", "t": 0.0, "seq": 0, "key": ["c", 0]}]),
            _node_dump("r", [{"kind": "execute", "t": 1.0, "seq": 0, "key": ["c", 0]},
                             {"kind": "execute", "t": 2.0, "seq": 1, "key": ["c", 1]}]),
        ])
        span = timeline_for_key(build_timeline(merged), ("c", 0))
        assert [event["kind"] for event in span] == ["submit", "execute"]


# ----------------------------------------------------------------------
# Diagnosis
# ----------------------------------------------------------------------


class TestDiagnose:
    def test_divergent_votes_are_attributed_with_quorum_math(self):
        x, y = "aaaa" * 16, "bbbb" * 16
        events = [
            _vote("r0", 1.0, 8, x, "r0", 0), _vote("r0", 1.1, 8, x, "r2", 1),
            _vote("r0", 1.2, 8, y, "r1", 2), _vote("r0", 1.3, 8, y, "r3", 3),
        ]
        merged = merge_dumps([_node_dump("r0", events)])
        diagnosis = diagnose(merged)
        (finding,) = [
            f for f in diagnosis["findings"] if f["kind"] == "checkpoint-divergence"
        ]
        assert finding["level"] == "critical"
        assert finding["data"]["sequence"] == 8
        assert finding["data"]["quorum"] == 3
        assert finding["data"]["votes_by_digest"] == {
            "aaaa" * 3: ["r0", "r2"], "bbbb" * 3: ["r1", "r3"],
        }
        assert "replicas r1, r3" in finding["detail"]

    def test_certified_checkpoints_are_not_findings(self):
        x = "aaaa" * 16
        events = [
            _vote("r0", 1.0, 8, x, "r0", 0), _vote("r0", 1.1, 8, x, "r1", 1),
            _vote("r0", 1.2, 8, x, "r2", 2),
            {"kind": "checkpoint-cert", "t": 1.3, "sequence": 8, "seq": 3},
        ]
        merged = merge_dumps([_node_dump("r0", events)])
        kinds = [f["kind"] for f in diagnose(merged)["findings"]]
        assert "checkpoint-divergence" not in kinds
        assert "checkpoint-starvation" not in kinds

    def test_subquorum_votes_without_divergence_report_starvation(self):
        x = "aaaa" * 16
        events = [
            _vote("r0", 1.0, 8, x, "r0", 0, checkpoint_interval=8, log_window=16),
            _vote("r0", 1.1, 8, x, "r1", 1),
            {"kind": "execute", "t": 1.2, "seq": 2, "sequence": 12},
        ]
        # r2/r3 executed but their votes never arrived (crashed or cut off):
        # they still count toward n because they recorded replica-side events.
        merged = merge_dumps([
            _node_dump("r0", events),
            _node_dump("r2", [{"kind": "execute", "t": 0.5, "seq": 0, "sequence": 4}]),
            _node_dump("r3", [{"kind": "execute", "t": 0.5, "seq": 0, "sequence": 4}]),
        ])
        (finding,) = [
            f for f in diagnose(merged)["findings"]
            if f["kind"] == "checkpoint-starvation"
        ]
        assert finding["level"] == "warn"
        assert finding["data"]["votes"] == 2

    def test_quorum_failures_and_drops_and_truncation_are_reported(self):
        events = [
            {"kind": "quorum-failure", "t": 5.0, "seq": 0, "key": ["c", 0], "attempts": 4},
            {"kind": "msg-drop", "t": 1.0, "seq": 1, "reason": "lossy-link"},
            {"kind": "msg-drop", "t": 2.0, "seq": 2, "reason": "partitioned"},
        ]
        merged = merge_dumps([_node_dump("c", events, recorded=40, dropped=7)])
        findings = {f["kind"]: f for f in diagnose(merged)["findings"]}
        assert findings["quorum-failure"]["level"] == "critical"
        assert findings["message-loss"]["data"]["by_reason"] == {
            "lossy-link": 1, "partitioned": 1,
        }
        assert findings["recording-truncated"]["data"]["dropped"] == {"c": 7}

    def test_health_reports_are_cross_referenced(self):
        merged = merge_dumps([_node_dump("r0", [])])
        health = [{
            "probe": "checkpoint-starvation", "level": "critical",
            "subject": "group", "detail": "lag 16", "data": {"lag": 16},
        }]
        (finding,) = diagnose(merged, health=health)["findings"]
        assert finding["kind"] == "health:checkpoint-starvation"
        assert finding["level"] == "critical"
        assert "online probe" in finding["detail"]

    def test_findings_sort_critical_first(self):
        x, y = "a" * 64, "b" * 64
        events = [
            {"kind": "msg-drop", "t": 0.5, "seq": 0, "reason": "lossy-link"},
            _vote("r0", 1.0, 8, x, "r0", 1), _vote("r0", 1.1, 8, y, "r1", 2),
        ]
        merged = merge_dumps([_node_dump("r0", events)])
        levels = [f["level"] for f in diagnose(merged)["findings"]]
        assert levels == sorted(levels, key=("critical", "warn", "info").index)

    def test_healthy_recordings_produce_no_findings(self):
        events = [
            {"kind": "execute", "t": 1.0, "seq": 0, "sequence": 1},
            {"kind": "reply", "t": 1.1, "seq": 1},
        ]
        diagnosis = diagnose(merge_dumps([_node_dump("r0", events)]))
        assert diagnosis["findings"] == []
        assert diagnosis["events"] == 2
        assert "no findings" in render_text(diagnosis)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    @pytest.fixture()
    def wedge_dump(self, tmp_path):
        x, y = "aaaa" * 16, "bbbb" * 16
        events = [
            _vote("r0", 1.0, 8, x, "r0", 0), _vote("r0", 1.1, 8, x, "r2", 1),
            _vote("r0", 1.2, 8, y, "r1", 2), _vote("r0", 1.3, 8, y, "r3", 3),
        ]
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(_node_dump("r0", events)))
        return path

    def test_text_output_names_the_wedge(self, wedge_dump, capsys):
        assert main([str(wedge_dump)]) == 0
        out = capsys.readouterr().out
        assert "[CRIT] checkpoint-divergence" in out
        assert "replicas r1, r3" in out

    def test_json_output_to_file_and_fail_on_critical(self, wedge_dump, tmp_path):
        report = tmp_path / "diag.json"
        code = main([
            str(wedge_dump), "--format", "json",
            "--output", str(report), "--fail-on-critical",
        ])
        assert code == 1
        diagnosis = json.loads(report.read_text())
        kinds = [f["kind"] for f in diagnosis["findings"]]
        assert "checkpoint-divergence" in kinds

    def test_health_snapshot_is_merged_into_findings(self, wedge_dump, tmp_path, capsys):
        health = tmp_path / "health.json"
        health.write_text(json.dumps([{
            "probe": "view-churn", "level": "warn",
            "subject": "group", "detail": "churny", "data": {},
        }]))
        assert main([str(wedge_dump), "--health", str(health)]) == 0
        assert "health:view-churn" in capsys.readouterr().out

    def test_load_dump_round_trips_recorder_output(self, tmp_path):
        recorder = EventLog()
        recorder.record("execute", "r0", 1.0, sequence=1)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(recorder.dump()))
        merged = merge_dumps([load_dump(path)])
        assert merged["r0"]["events"][0]["kind"] == "execute"
