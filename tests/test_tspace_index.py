"""The tuple store's two-level index: same answers as a linear scan, and
the cost it claims (one ``matches`` call per candidate of the most
specific bucket)."""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tspace.space
from repro.errors import OperationTimeoutError
from repro.peo import PEATS
from repro.policy import AccessPolicy, Rule
from repro.policy.library import SEQ
from repro.tspace import AugmentedTupleSpace
from repro.tuples import ANY, Entry, Formal, Template, entry, matches, template


class LinearScan:
    """Reference store: a list in insertion order; the first match wins."""

    def __init__(self) -> None:
        self.entries: list[Entry] = []

    def _first(self, pattern):
        return next((i for i, e in enumerate(self.entries) if matches(e, pattern)), None)

    def out(self, stored):
        self.entries.append(stored)
        return True

    def rdp(self, pattern):
        index = self._first(pattern)
        return None if index is None else self.entries[index]

    def inp(self, pattern):
        index = self._first(pattern)
        return None if index is None else self.entries.pop(index)

    def cas(self, pattern, stored):
        existing = self.rdp(pattern)
        return (False, existing) if existing is not None else (self.out(stored), None)


VALUES = st.sampled_from([0, 1, True, False, 1.0, "a", "b", ("t", 1)])
PATTERN_FIELDS = st.one_of(VALUES, st.sampled_from([ANY, Formal("x"), Formal("y", int)]))


def _unique_formals(fields: list) -> bool:
    names = [field.name for field in fields if isinstance(field, Formal)]
    return len(names) == len(set(names))


# A fresh Entry object per draw, so equal duplicates are distinct objects
# and the identity checks below see which one a read picked.
ENTRIES = st.lists(VALUES, min_size=1, max_size=3).map(Entry)
PATTERNS = st.one_of(
    st.lists(PATTERN_FIELDS, min_size=1, max_size=3).filter(_unique_formals).map(Template),
    ENTRIES,  # an entry reads as "exactly this tuple"
)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("out"), ENTRIES),
        st.tuples(st.just("rdp"), PATTERNS),
        st.tuples(st.just("inp"), PATTERNS),
        st.tuples(st.just("cas"), PATTERNS, ENTRIES),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(STEPS)
def test_every_answer_is_the_linear_scans(steps):
    space, reference = AugmentedTupleSpace(), LinearScan()
    for operation, *arguments in steps:
        got = getattr(space, operation)(*arguments)
        expected = getattr(reference, operation)(*arguments)
        if operation == "cas":
            assert got[0] == expected[0] and got[1] is expected[1]
        else:
            assert got is expected
        snapshot = space.snapshot()
        assert snapshot == tuple(reference.entries)
        assert all(a is b for a, b in zip(snapshot, reference.entries))
        assert len(space) == len(reference.entries)


# ----------------------------------------------------------------------
# What a probe costs
# ----------------------------------------------------------------------

LOG_SIZE = 10_000


@pytest.fixture(scope="module")
def seq_log():
    return [entry(SEQ, position, f"inv-{position}") for position in range(LOG_SIZE)]


def test_probes_cost_one_match_per_candidate_of_the_narrowest_bucket(seq_log, count_calls):
    space = AugmentedTupleSpace(seq_log)
    calls = count_calls(repro.tspace.space, "matches")

    def cost(probe) -> tuple[object, int]:
        calls.clear()
        return probe(), len(calls)

    assert cost(lambda: space.rdp(template(SEQ, 5_000, Formal("inv")))) == (seq_log[5_000], 1)
    assert cost(lambda: space.rdp(template(SEQ, LOG_SIZE, Formal("inv")))) == (None, 0)
    # Fig. 8's "already threaded?" probe: field 1 undefined, so the whole
    # SEQ bucket is scanned (the scan a per-field index would remove).
    assert cost(lambda: space.rdp(template(SEQ, ANY, "inv-absent"))) == (None, LOG_SIZE)
    assert cost(lambda: space.inp(template(SEQ, ANY, ANY))) == (seq_log[0], 1)
    fresh = entry(SEQ, LOG_SIZE, "inv-new")
    assert cost(lambda: space.cas(template(SEQ, LOG_SIZE, Formal("inv")), fresh)) == (
        (True, None),
        0,
    )


@pytest.mark.parametrize("int_first", [True, False], ids=["int-first", "bool-first"])
def test_one_and_true_share_a_bucket_but_never_an_answer(int_first):
    as_int, as_bool = entry("K", 1, "a"), entry("K", True, "b")
    space = AugmentedTupleSpace([as_int, as_bool] if int_first else [as_bool, as_int])
    assert space.rdp(template("K", 1, ANY)) is as_int
    assert space.rdp(template("K", True, ANY)) is as_bool
    assert space.rdp(template("K", 1, "b")) is None
    assert space.rdp(template("K", True, "a")) is None
    assert space.inp(template("K", True, Formal("v"))) is as_bool
    assert space.rdp(template("K", True, ANY)) is None
    assert space.rdp(template("K", 1, ANY)) is as_int


# ----------------------------------------------------------------------
# A bucket may shrink while a reader walks it
# ----------------------------------------------------------------------


def test_a_blocking_take_beside_a_bucket_scan_raises_nothing():
    """``PEATS.rdp`` scans under the PEATS lock while ``PEATS.in_``
    removes under the space's condition, so a bucket may lose an id in
    the middle of a scan: the scan must walk a copy."""
    open_policy = AccessPolicy(
        [Rule(name, name) for name in ("out", "rdp", "in")], name="open"
    )
    peats = PEATS(open_policy, initial=[entry("JOB", i, "keep") for i in range(2_000)])
    errors: list[Exception] = []
    produced, consumed = [0], [0]
    stop = threading.Event()

    def consumer():
        try:
            while True:
                try:
                    peats.in_(template("JOB", ANY, "take"), timeout=0.2)
                except OperationTimeoutError:
                    if stop.is_set():
                        return
                    continue
                consumed[0] += 1
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def scanner():
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                peats.out(entry("JOB", 2_000 + produced[0], "take"))
                produced[0] += 1
                assert peats.rdp(template("JOB", ANY, "absent")) is None
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            stop.set()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=consumer), threading.Thread(target=scanner)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    assert not any(thread.is_alive() for thread in threads)
    assert produced[0] > 0 and consumed[0] == produced[0]
    assert len(peats) == 2_000
