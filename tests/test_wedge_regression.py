"""Regression: the PR 9 checkpoint wedge must now be diagnosable.

PR 9's digest nondeterminism made replicas vote different digests for
the same checkpoint sequence, so no 2f+1 certificate could form, the
log window jammed at ``stable + log_window`` and the group wedged with
every counter frozen.  This file re-creates that failure shape on
purpose — :data:`ReplicaFaultMode.DIVERGENT` corrupts the checkpoint
digest deterministically on replicas 1 and 3, splitting the vote 2-vs-2
at f=1 — and asserts the PR 10 instruments see it:

* the live monitor's ``checkpoint-starvation`` fires *critical* once
  execution runs a full log window past the stable checkpoint, and its
  ``checkpoint-divergence`` names both digest camps;
* the post-mortem doctor, fed only the flight dumps, attributes the
  divergence to exactly replicas {1, 3} vs {0, 2};
* both run one rule table, so they report the same findings.
"""

from __future__ import annotations

from repro.obs import Observability
from repro.obs.doctor import diagnose, merge_dumps
from repro.replication import ReplicaFaultMode
from repro.sim import FaultModeWindow, Scenario, run_scenario
from repro.sim.workloads import consensus_storm

CHECKPOINT_INTERVAL = 4  # log window defaults to 2x = 8


def _wedge(obs):
    return Scenario(
        name="pr9-wedge",
        clients=consensus_storm(12),
        faults=[
            FaultModeWindow(replica=1, mode=ReplicaFaultMode.DIVERGENT, start=0.0),
            FaultModeWindow(replica=3, mode=ReplicaFaultMode.DIVERGENT, start=0.0),
        ],
        seed=11,
        checkpoint_interval=CHECKPOINT_INTERVAL,
        deadline=2500.0,  # the group wedges; the run must still terminate
        obs=obs,
    )


def _run_wedge():
    obs = Observability()
    result = run_scenario(_wedge(obs))
    assert not result.completed, "the divergent wedge is supposed to stall"
    return obs, result


class TestWedgeRegression:
    def test_group_wedges_within_one_log_window(self):
        _obs, result = _run_wedge()
        nodes = result.service.nodes
        window = max(node.log_window for node in nodes)
        assert all(node.stable_checkpoint == 0 for node in nodes)
        # The primary stops assigning sequences at the high-water mark:
        # execution gets exactly one log window past the stable checkpoint.
        assert max(node.last_executed for node in nodes) == window

    def test_starvation_probe_fires_critical_and_names_both_camps(self):
        obs, result = _run_wedge()
        reports = []
        for _ in range(obs.health.fire_after):
            reports = obs.health.check(result.service)
        starvation = [r for r in reports if r.probe == "checkpoint-starvation"]
        assert len(starvation) == 1
        report = starvation[0]
        assert report.level == "critical"
        assert report.data["lag"] >= report.data["log_window"]
        (divergence,) = [r for r in reports if r.probe == "checkpoint-divergence"]
        camps = sorted(divergence.data["votes_by_digest"].values())
        assert camps == [
            ["replica-0", "replica-2"], ["replica-1", "replica-3"],
        ]

    def test_doctor_attributes_divergence_from_flight_dumps_alone(self):
        obs, _result = _run_wedge()
        diagnosis = diagnose(merge_dumps([obs.events.dump()]))
        divergence = [
            f for f in diagnosis["findings"] if f["kind"] == "checkpoint-divergence"
        ]
        assert len(divergence) == 1
        finding = divergence[0]
        assert finding["level"] == "critical"
        assert finding["data"]["quorum"] == 3  # n=4, f=1
        camps = sorted(finding["data"]["votes_by_digest"].values())
        assert camps == [
            ["replica-0", "replica-2"], ["replica-1", "replica-3"],
        ]
        # The two camps disagree: two distinct digests, neither at quorum.
        digests = list(finding["data"]["votes_by_digest"])
        assert len(digests) == 2 and digests[0] != digests[1]

    def test_live_and_post_mortem_diagnoses_agree(self):
        obs, result = _run_wedge()
        for _ in range(obs.health.fire_after):
            reports = obs.health.check(result.service)
        live = sorted((r.probe, r.level, r.subject) for r in reports)
        diagnosis = diagnose(merge_dumps([obs.events.dump()]))
        dump_only = {"message-loss", "recording-truncated"}
        post_mortem = sorted(
            (f["kind"], f["level"], f["subject"])
            for f in diagnosis["findings"]
            if f["kind"] not in dump_only and not f["kind"].startswith("health:")
        )
        assert live == post_mortem
        assert ("checkpoint-divergence", "critical", "group") in live
        (online,) = [r for r in reports if r.probe == "checkpoint-divergence"]
        (offline,) = [
            f for f in diagnosis["findings"] if f["kind"] == "checkpoint-divergence"
        ]
        assert online.data == offline["data"]

    def test_wedge_replay_is_deterministic(self):
        first_obs, _ = _run_wedge()
        second_obs, _ = _run_wedge()
        assert first_obs.events.dump() == second_obs.events.dump()
