"""Unit and concurrency tests for the linearizable wrapper."""

import threading

import pytest

from repro.errors import PendingOperationError
from repro.tspace import AugmentedTupleSpace, HistoryRecorder, LinearizableTupleSpace
from repro.tspace.history import check_sequential_consistency
from repro.tuples import ANY, Formal, entry, template


@pytest.fixture
def recorder():
    return HistoryRecorder()


@pytest.fixture
def space(recorder):
    return LinearizableTupleSpace(history=recorder)


class TestBasicDelegation:
    def test_out_rdp_inp(self, space):
        space.out(entry("A", 1), process="p1")
        assert space.rdp(template("A", ANY), process="p2") == entry("A", 1)
        assert space.inp(template("A", ANY), process="p2") == entry("A", 1)
        assert space.rdp(template("A", ANY), process="p1") is None

    def test_cas(self, space):
        inserted, _ = space.cas(template("D", Formal("v")), entry("D", 1), process="p1")
        assert inserted
        inserted, existing = space.cas(template("D", Formal("v")), entry("D", 2), process="p2")
        assert not inserted and existing == entry("D", 1)

    def test_blocking_rd(self, space):
        space.out(entry("A", 1))
        assert space.rd(template("A", ANY), timeout=0.1) == entry("A", 1)

    def test_snapshot(self, space):
        space.out(entry("A", 1))
        assert space.snapshot() == (entry("A", 1),)

    def test_default_inner_space_created(self):
        wrapper = LinearizableTupleSpace()
        assert isinstance(wrapper.inner, AugmentedTupleSpace)


class TestHistoryRecording:
    def test_operations_are_recorded_with_process(self, space, recorder):
        space.out(entry("A", 1), process="p1")
        space.rdp(template("A", ANY), process="p2")
        records = recorder.records()
        assert [r.operation for r in records] == ["out", "rdp"]
        assert [r.process for r in records] == ["p1", "p2"]

    def test_history_is_sequentially_consistent(self, space, recorder):
        space.out(entry("A", 1), process="p1")
        space.cas(template("D", Formal("v")), entry("D", 1), process="p2")
        space.cas(template("D", Formal("v")), entry("D", 2), process="p3")
        space.inp(template("A", ANY), process="p1")
        assert check_sequential_consistency(recorder.records()) == []

    def test_counts_by_process_and_kind(self, space, recorder):
        space.out(entry("A", 1), process="p1")
        space.out(entry("B", 1), process="p1")
        space.rdp(template("A", ANY), process="p2")
        assert recorder.operations_by_process() == {"p1": 2, "p2": 1}
        assert recorder.operations_by_kind() == {"out": 2, "rdp": 1}


class TestWellFormedness:
    def test_reentrant_invocations_rejected_when_enforced(self):
        space = LinearizableTupleSpace(enforce_well_formedness=True)
        # Simulate a pending operation by taking the pending slot directly.
        space._pending.add("p1")
        with pytest.raises(PendingOperationError):
            space.out(entry("A", 1), process="p1")

    def test_sequential_use_is_always_well_formed(self):
        space = LinearizableTupleSpace(enforce_well_formedness=True)
        for i in range(5):
            space.out(entry("A", i), process="p1")
        assert len(space.snapshot()) == 5


class TestConcurrency:
    def test_concurrent_cas_has_exactly_one_winner(self):
        recorder = HistoryRecorder()
        space = LinearizableTupleSpace(history=recorder)
        winners = []
        barrier = threading.Barrier(8)

        def contender(pid):
            barrier.wait()
            inserted, _ = space.cas(
                template("D", Formal("v")), entry("D", pid), process=pid
            )
            if inserted:
                winners.append(pid)

        threads = [threading.Thread(target=contender, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1
        assert len(space.snapshot()) == 1
        assert check_sequential_consistency(recorder.records()) == []

    def test_concurrent_outs_all_land(self):
        space = LinearizableTupleSpace()

        def writer(pid):
            for i in range(20):
                space.out(entry("A", pid, i), process=pid)

        threads = [threading.Thread(target=writer, args=(p,)) for p in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(space.snapshot()) == 80


class TestProcessBoundView:
    def test_bind_attributes_operations(self, space, recorder):
        view = space.bind("p7")
        view.out(entry("A", 1))
        view.rdp(template("A", ANY))
        view.cas(template("D", Formal("v")), entry("D", 1))
        assert all(record.process == "p7" for record in recorder.records())

    def test_bind_snapshot_and_process(self, space):
        view = space.bind("p7")
        view.out(entry("A", 1))
        assert view.process == "p7"
        assert view.snapshot() == (entry("A", 1),)
