"""Unit tests for the plain tuple space (out / rdp / inp / rd / in)."""

import threading
import time

import pytest

from repro.errors import OperationTimeoutError, TupleSpaceError
from repro.tspace import TupleSpace
from repro.tuples import ANY, Formal, entry, template


@pytest.fixture
def space():
    return TupleSpace()


class TestOut:
    def test_out_inserts(self, space):
        assert space.out(entry("A", 1)) is True
        assert len(space) == 1

    def test_out_allows_duplicates(self, space):
        space.out(entry("A", 1))
        space.out(entry("A", 1))
        assert len(space) == 2

    def test_out_rejects_non_entries(self, space):
        with pytest.raises(TupleSpaceError):
            space.out(template("A", ANY))

    def test_initial_population(self):
        prefilled = TupleSpace([entry("A", 1), entry("B", 2)])
        assert len(prefilled) == 2


class TestRdp:
    def test_rdp_returns_matching_entry(self, space):
        space.out(entry("A", 1))
        assert space.rdp(template("A", Formal("v"))) == entry("A", 1)

    def test_rdp_returns_none_without_match(self, space):
        space.out(entry("A", 1))
        assert space.rdp(template("B", ANY)) is None

    def test_rdp_does_not_remove(self, space):
        space.out(entry("A", 1))
        space.rdp(template("A", ANY))
        assert len(space) == 1

    def test_rdp_oldest_first_is_deterministic(self, space):
        space.out(entry("A", 1))
        space.out(entry("A", 2))
        assert space.rdp(template("A", Formal("v"))) == entry("A", 1)

    def test_rdp_with_wildcard_first_field(self, space):
        space.out(entry("A", 1))
        space.out(entry("B", 2))
        assert space.rdp(template(ANY, 2)) == entry("B", 2)

    def test_rdp_rejects_non_templates(self, space):
        with pytest.raises(TupleSpaceError):
            space.rdp("not a template")


class TestInp:
    def test_inp_removes_and_returns(self, space):
        space.out(entry("A", 1))
        assert space.inp(template("A", ANY)) == entry("A", 1)
        assert len(space) == 0

    def test_inp_returns_none_without_match(self, space):
        assert space.inp(template("A", ANY)) is None

    def test_inp_removes_only_one_duplicate(self, space):
        space.out(entry("A", 1))
        space.out(entry("A", 1))
        space.inp(template("A", 1))
        assert len(space) == 1

    def test_index_is_cleaned_after_removal(self, space):
        space.out(entry("A", 1))
        space.inp(template("A", 1))
        space.out(entry("A", 2))
        assert space.rdp(template("A", Formal("v"))) == entry("A", 2)


class TestBlockingReads:
    def test_rd_returns_immediately_when_present(self, space):
        space.out(entry("A", 1))
        assert space.rd(template("A", ANY), timeout=0.1) == entry("A", 1)

    def test_rd_times_out(self, space):
        with pytest.raises(TimeoutError):
            space.rd(template("A", ANY), timeout=0.05)

    def test_in_removes(self, space):
        space.out(entry("A", 1))
        assert space.in_(template("A", ANY), timeout=0.1) == entry("A", 1)
        assert len(space) == 0

    def test_rd_wakes_up_on_insertion_from_another_thread(self, space):
        result = {}

        def writer():
            space.out(entry("A", 99))

        def reader():
            result["value"] = space.rd(template("A", Formal("v")), timeout=2.0)

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        reader_thread.join(timeout=5)
        writer_thread.join(timeout=5)
        assert result["value"] == entry("A", 99)

    @pytest.mark.parametrize("operation", ["rd", "in_"])
    def test_timeout_is_one_deadline_under_unrelated_inserts(self, space, operation):
        # Every insert wakes the waiter; the timeout must not restart on
        # each wake, or steady unrelated traffic holds the read forever.
        stop = threading.Event()

        def churn():
            for index in range(400):  # an insert every 5 ms for up to 2 s
                if stop.wait(0.005):
                    return
                space.out(entry("NOISE", index))

        writer = threading.Thread(target=churn)
        writer.start()
        started = time.monotonic()
        try:
            with pytest.raises(OperationTimeoutError):
                getattr(space, operation)(template("WANTED", ANY), timeout=0.1)
            elapsed = time.monotonic() - started
        finally:
            stop.set()
            writer.join(timeout=5)
        assert elapsed < 1.0
        assert len(space) > 0  # the churn really ran while the read waited


class TestIntrospection:
    def test_snapshot_preserves_insertion_order(self, space):
        space.out(entry("A", 1))
        space.out(entry("B", 2))
        assert space.snapshot() == (entry("A", 1), entry("B", 2))

    def test_count(self, space):
        space.out(entry("A", 1))
        space.out(entry("A", 2))
        space.out(entry("B", 3))
        assert space.count(template("A", ANY)) == 2

    def test_contains_entry_and_template(self, space):
        space.out(entry("A", 1))
        assert entry("A", 1) in space
        assert template("A", ANY) in space
        assert entry("B", 1) not in space
        assert "garbage" not in space

    def test_clear(self, space):
        space.out(entry("A", 1))
        space.clear()
        assert len(space) == 0

    def test_cas_not_available_on_plain_space(self, space):
        with pytest.raises(TupleSpaceError):
            space.cas(template("A", ANY), entry("A", 1))


class TestEntryAsTemplateNormalization:
    """Regression tests for the single `_as_template` normalization point."""

    def test_rdp_accepts_an_entry_as_template(self, space):
        space.out(entry("A", 1))
        space.out(entry("A", 2))
        assert space.rdp(entry("A", 2)) == entry("A", 2)
        assert space.rdp(entry("A", 3)) is None

    def test_inp_accepts_an_entry_as_template(self, space):
        space.out(entry("A", 1))
        assert space.inp(entry("A", 1)) == entry("A", 1)
        assert space.inp(entry("A", 1)) is None

    def test_entry_template_uses_the_name_index(self, space):
        # An entry's first field is always defined, so the lookup must go
        # through the name index; seed unrelated names to prove no cross-talk.
        for i in range(5):
            space.out(entry(f"N{i}", i))
        space.out(entry("A", 7))
        assert space.rdp(entry("A", 7)) == entry("A", 7)

    def test_reads_reject_non_tuple_patterns(self, space):
        with pytest.raises(TupleSpaceError):
            space.rdp("A")
        with pytest.raises(TupleSpaceError):
            space.inp(("A", 1))

    def test_len_is_live(self, space):
        assert len(space) == 0
        space.out(entry("A", 1))
        space.out(entry("A", 1))
        assert len(space) == 2
        space.inp(template("A", ANY))
        assert len(space) == 1
