"""Tests for the local PEATS (policy-enforced augmented tuple space)."""

import threading

import pytest

from repro.errors import AccessDeniedError
from repro.peo import PEATS
from repro.peo.base import DeniedResult
from repro.policy import AccessPolicy, Rule, strong_consensus_policy, weak_consensus_policy
from repro.tspace.history import HistoryRecorder
from repro.tuples import ANY, Formal, entry, template


def open_policy():
    """A permissive policy used to test the plumbing without denials."""
    return AccessPolicy(
        [Rule(name, name) for name in ("out", "rdp", "inp", "rd", "in", "cas")],
        name="open",
    )


class TestPlumbing:
    def test_all_operations_work_under_an_open_policy(self):
        space = PEATS(open_policy())
        assert space.out(entry("A", 1), process="p1") is True
        assert space.rdp(template("A", ANY), process="p1") == entry("A", 1)
        inserted, _ = space.cas(template("B", ANY), entry("B", 2), process="p1")
        assert inserted is True
        assert space.inp(template("B", ANY), process="p1") == entry("B", 2)
        assert space.rd(template("A", ANY), timeout=0.1, process="p1") == entry("A", 1)
        assert space.in_(template("A", ANY), timeout=0.1, process="p1") == entry("A", 1)
        assert len(space) == 0

    def test_initial_entries(self):
        space = PEATS(open_policy(), initial=[entry("A", 1)])
        assert len(space) == 1

    def test_len_and_repr_do_not_copy_the_space(self, count_calls):
        space = PEATS(open_policy(), initial=[entry("A", i) for i in range(5)])
        snapshots = count_calls(space._space, "snapshot")
        assert len(space) == 5 and "size=5" in repr(space)
        assert snapshots == []

    def test_size_bits(self):
        space = PEATS(open_policy(), initial=[entry("A", 3)])
        assert space.size_bits() == 8 + 2

    def test_history_and_monitor(self):
        history = HistoryRecorder()
        space = PEATS(weak_consensus_policy(), history=history)
        space.out(entry("DECISION", 1), process="p1")  # denied by Fig. 3
        space.cas(template("DECISION", Formal("d")), entry("DECISION", 1), process="p1")
        assert history.denied_count() == 1
        assert space.monitor.denied_count == 1
        assert space.monitor.granted_count == 1


class TestDenialSemantics:
    def test_denied_out_returns_falsy_with_reason(self):
        space = PEATS(weak_consensus_policy())
        result = space.out(entry("DECISION", 1), process="p1")
        assert isinstance(result, DeniedResult)
        assert not result
        assert "deny" in result.reason.lower() or "no rule" in result.reason.lower()

    def test_denied_read_returns_none(self):
        space = PEATS(weak_consensus_policy(), initial=[entry("DECISION", 1)])
        assert space.rdp(template("DECISION", ANY), process="p1") is None
        assert space.inp(template("DECISION", ANY), process="p1") is None

    def test_denied_cas_returns_falsy_pair(self):
        space = PEATS(weak_consensus_policy())
        inserted, existing = space.cas(
            template("OTHER", Formal("x")), entry("OTHER", 1), process="p1"
        )
        assert not inserted and existing is None

    def test_denied_blocking_read_raises(self):
        space = PEATS(weak_consensus_policy(), initial=[entry("DECISION", 1)])
        with pytest.raises(AccessDeniedError):
            space.rd(template("DECISION", ANY), timeout=0.1, process="p1")
        with pytest.raises(AccessDeniedError):
            space.in_(template("DECISION", ANY), timeout=0.1, process="p1")

    def test_raise_on_deny_mode(self):
        space = PEATS(weak_consensus_policy(), raise_on_deny=True)
        with pytest.raises(AccessDeniedError):
            space.out(entry("DECISION", 1), process="p1")


class TestAtomicityOfPolicyAndOperation:
    def test_policy_sees_state_at_execution_time(self):
        # Fig. 4 Rout: a second proposal by the same process is denied even
        # when issued concurrently from many threads.
        processes = list(range(4))
        space = PEATS(strong_consensus_policy(processes, 1))
        results = []

        def proposer():
            results.append(bool(space.out(entry("PROPOSE", 0, 1), process=0)))

        threads = [threading.Thread(target=proposer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results.count(True) == 1
        assert len(space.snapshot()) == 1

    def test_single_decision_under_concurrent_cas(self):
        processes = list(range(4))
        space = PEATS(strong_consensus_policy(processes, 1))
        for process in (0, 1, 2):
            space.out(entry("PROPOSE", process, 1), process=process)
        winners = []

        def decider(process):
            inserted, _ = space.cas(
                template("DECISION", Formal("d"), ANY),
                entry("DECISION", 1, frozenset({0, 1})),
                process=process,
            )
            if inserted:
                winners.append(process)

        threads = [threading.Thread(target=decider, args=(p,)) for p in (0, 1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1


class TestProcessBoundPEATS:
    def test_bind_carries_identity(self):
        processes = list(range(4))
        space = PEATS(strong_consensus_policy(processes, 1))
        view0 = space.bind(0)
        view1 = space.bind(1)
        assert view0.out(entry("PROPOSE", 0, 1)) is True
        # view1 may not publish a proposal in 0's name.
        assert not view1.out(entry("PROPOSE", 0, 1))
        assert view1.out(entry("PROPOSE", 1, 1)) is True
        assert view0.rdp(template("PROPOSE", 1, Formal("v"))) == entry("PROPOSE", 1, 1)
        assert view0.process == 0
        assert view0.space is space
        assert len(view0.snapshot()) == 2
