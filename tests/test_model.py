"""Tests for processes, schedulers and the Byzantine attack battery."""

import pytest

from repro.model import (
    ProcessRole,
    adversarial_schedule,
    make_processes,
    random_schedule,
    reversed_schedule,
    round_robin_schedule,
)
from repro.consensus import StrongConsensus
from repro.model.faults import attack_peats, impersonating_byzantine
from repro.peo import PEATS
from repro.policy import (
    default_consensus_policy,
    lock_free_universal_policy,
    strong_consensus_policy,
    wait_free_universal_policy,
    weak_consensus_policy,
)


class TestProcessSpecs:
    def test_make_processes_roles(self):
        specs = make_processes(5, byzantine=2)
        assert [spec.pid for spec in specs] == [0, 1, 2, 3, 4]
        assert [spec.is_correct for spec in specs] == [True, True, True, False, False]
        assert specs[-1].role is ProcessRole.BYZANTINE
        assert specs[-1].is_byzantine

    def test_prefix_names(self):
        specs = make_processes(2, prefix="node-")
        assert [spec.pid for spec in specs] == ["node-0", "node-1"]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_processes(0)
        with pytest.raises(ValueError):
            make_processes(3, byzantine=4)


class TestSchedules:
    ready = ("a", "b", "c", "d")

    def test_round_robin_rotates(self):
        assert round_robin_schedule(self.ready, 0) == self.ready
        assert round_robin_schedule(self.ready, 1) == ("b", "c", "d", "a")
        assert round_robin_schedule((), 5) == ()

    def test_reversed(self):
        assert reversed_schedule(self.ready, 0) == ("d", "c", "b", "a")

    def test_random_is_seeded_and_permutes(self):
        schedule_a = random_schedule(3)
        schedule_b = random_schedule(3)
        assert schedule_a(self.ready, 0) == schedule_b(self.ready, 0)
        assert sorted(schedule_a(self.ready, 1)) == sorted(self.ready)

    def test_adversarial_starves_victims(self):
        schedule = adversarial_schedule(["a"], starve_rounds=3)
        assert "a" not in schedule(self.ready, 1)
        assert "a" not in schedule(self.ready, 2)
        assert "a" in schedule(self.ready, 3)


class TestAttackBattery:
    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: strong_consensus_policy(range(4), 1),
            lambda: default_consensus_policy(range(4), 1),
        ],
        ids=["strong", "default"],
    )
    def test_consensus_policies_deny_every_attack(self, policy_factory):
        space = PEATS(policy_factory())
        report = attack_peats(space.bind(3), 3, victims=[0, 1], t=1)
        assert report.total >= 10
        assert report.denied == report.total
        assert report.succeeded_attacks() == []

    def test_weak_policy_denies_all_non_cas_attacks(self):
        space = PEATS(weak_consensus_policy())
        report = attack_peats(space.bind("byz"), "byz", victims=["p1"], t=1)
        # The only attack that can "succeed" against Fig. 3 is the DECISION
        # cas itself — but the battery's decision attacks use 3-field
        # DECISION tuples (the strong-consensus shape), which Fig. 3 rejects.
        assert report.denied == report.total

    def test_universal_policies_reject_out_of_order_threading(self):
        lock_free = PEATS(lock_free_universal_policy())
        report = attack_peats(lock_free.bind("byz"), "byz", t=1)
        assert report.succeeded_attacks() == []
        wait_free = PEATS(wait_free_universal_policy(["a", "b", "c"]))
        report = attack_peats(wait_free.bind("a"), "a", t=1)
        assert report.succeeded_attacks() == []

    def test_attacker_is_judged_as_itself_on_a_view_bound_to_someone_else(self):
        """A view must never lend its identity: handed ``peats.bind(0)`` and
        attacker 3, the battery and the strategies re-bind on the parent,
        so impersonating 0's PROPOSE is denied exactly as on the unbound
        PEATS (the retired ``process=`` fallback silently ran it as 0)."""
        policy = lambda: strong_consensus_policy(range(4), 1)  # noqa: E731
        unbound = attack_peats(PEATS(policy()), 3, victims=[0], t=1)
        bound = attack_peats(PEATS(policy()).bind(0), 3, victims=[0], t=1)
        assert bound.attempts == unbound.attempts
        assert bound.succeeded_attacks() == []
        space = PEATS(policy())
        consensus = StrongConsensus(range(4), 1, space=space.bind(0))
        list(impersonating_byzantine(victim=0)(consensus, 3))
        assert space.snapshot() == ()

    def test_report_accessors(self):
        space = PEATS(strong_consensus_policy(range(4), 1))
        report = attack_peats(space.bind(0), 0, victims=[1], t=1)
        assert report.total == report.denied + report.succeeded
        assert "denied" in repr(report)
