"""Blocking reads and watches outside the simulation wait, never poll.

A local ``rd`` waits on the tuple space's insert condition between its
policy-checked probes, a real transport's ``rd`` on its future, and a
``watch(...).next`` on the condition its deliveries notify.  With
``time.sleep`` made to raise, each still returns what a concurrent
thread inserts.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import connect
from repro.policy import AccessPolicy, Rule
from repro.tuples import ANY, entry, template

#: Per backend: the connect() arguments and a generous wait, in the
#: backend's time unit (local seconds, loopback milliseconds).
BACKENDS = {
    "local": (("local",), {}, 5.0),
    "loopback": (("replicated",), {"f": 1, "transport": "asyncio"}, 5_000.0),
}


def open_policy() -> AccessPolicy:
    return AccessPolicy(
        [Rule(op, op) for op in ("out", "rdp", "inp", "cas")], name="wait-test"
    )


def _forbid_sleep(monkeypatch):
    def sleep(seconds):
        raise AssertionError(f"time.sleep({seconds}) called while waiting")

    monkeypatch.setattr(time, "sleep", sleep)


def _insert_later(space, item):
    def produce():
        threading.Event().wait(0.05)
        space.out(item, process="producer")

    thread = threading.Thread(target=produce)
    thread.start()
    return thread


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_rd_returns_a_concurrent_insert_without_sleeping(backend, monkeypatch):
    args, options, wait = BACKENDS[backend]
    with connect(*args, policy=open_policy(), **options) as space:
        _forbid_sleep(monkeypatch)
        producer = _insert_later(space, entry("JOB", 1))
        assert space.rd(template("JOB", ANY), timeout=wait, process="reader") == entry("JOB", 1)
        producer.join(timeout=10.0)
        monkeypatch.undo()
        assert not producer.is_alive()


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_watch_next_returns_a_concurrent_insert_without_sleeping(backend, monkeypatch):
    args, options, wait = BACKENDS[backend]
    with connect(*args, policy=open_policy(), **options) as space:
        subscription = space.watch(template("JOB", ANY), process="watcher")
        _forbid_sleep(monkeypatch)
        producer = _insert_later(space, entry("JOB", 2))
        event = subscription.next(timeout=wait)
        producer.join(timeout=10.0)
        monkeypatch.undo()
        assert not producer.is_alive()
        assert event is not None and event.entry == entry("JOB", 2)


def test_a_cancel_wakes_a_waiting_next():
    space = connect("local", policy=open_policy())
    subscription = space.watch(template("JOB", ANY), process="watcher")
    timer = threading.Timer(0.05, subscription.cancel)
    timer.start()
    started = time.monotonic()
    assert subscription.next(timeout=5.0) is None
    assert time.monotonic() - started < 2.0
    timer.join(timeout=10.0)
    assert not timer.is_alive()
