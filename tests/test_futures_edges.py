"""Edge paths of the backend-agnostic :class:`OperationFuture`.

The future is the currency of the unified API and, since the real
transports arrived, also a cross-thread waiter: completion can happen on
a reactor thread while a plain thread blocks in ``wait()`` or an asyncio
coroutine awaits the :meth:`~repro.futures.OperationFuture.as_asyncio`
mirror.  These tests pin the corners: callbacks that raise, ``result()``
after an exception, double-resolution, and the bridge's timeout and
cancellation behaviour.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import PendingOperationError
from repro.futures import OperationFuture


def make_future() -> OperationFuture:
    return OperationFuture(operation="rdp", submitted_at=10.0, request_id=7)


# ----------------------------------------------------------------------
# Resolution basics
# ----------------------------------------------------------------------


def test_result_before_completion_raises_pending():
    future = make_future()
    with pytest.raises(PendingOperationError):
        future.result()
    assert future.latency is None


def test_result_after_exception_reraises_every_time():
    future = make_future()
    boom = ValueError("boom")
    future._complete(11.0, exception=boom)
    for _ in range(2):  # re-raising is repeatable, not one-shot
        with pytest.raises(ValueError):
            future.result()
    assert future.exception is boom
    assert future.latency == pytest.approx(1.0)


def test_double_resolution_is_rejected_first_wins():
    future = make_future()
    future._complete(11.0, result=("OK", 1))
    future._complete(99.0, result=("OK", 2))
    future._complete(99.0, exception=RuntimeError("late failure"))
    assert future.result() == ("OK", 1)
    assert future.completed_at == 11.0
    assert future.exception is None


def test_callbacks_fire_once_even_when_resolution_races():
    future = make_future()
    calls = []
    future.add_done_callback(lambda f: calls.append(f.result()))
    future._complete(11.0, result=("OK", "first"))
    future._complete(12.0, result=("OK", "second"))
    assert calls == [("OK", "first")]


def test_callback_added_after_completion_fires_immediately():
    future = make_future()
    future._complete(11.0, result=("OK", 1))
    calls = []
    future.add_done_callback(lambda f: calls.append(True))
    assert calls == [True]


def test_raising_callback_propagates_but_future_stays_resolved():
    future = make_future()

    def bad_callback(f):
        raise RuntimeError("callback exploded")

    future.add_done_callback(bad_callback)
    with pytest.raises(RuntimeError, match="callback exploded"):
        future._complete(11.0, result=("OK", 1))
    # The resolution itself stuck: state is consistent for later readers.
    assert future.done
    assert future.result() == ("OK", 1)
    # ... and the real transports' reactors contain such callbacks via
    # RealTransport._contained, so one bad callback cannot stall delivery
    # (covered in test_net_transports.py).


def test_raising_callback_does_not_strand_later_waiters():
    """Callback isolation: one bad callback must not skip the rest — a
    ``wait()`` registered after it would otherwise sleep forever."""
    future = make_future()
    fired = []

    def bad_callback(f):
        raise RuntimeError("first callback exploded")

    future.add_done_callback(bad_callback)
    future.add_done_callback(lambda f: fired.append("waiter"))
    with pytest.raises(RuntimeError, match="first callback exploded"):
        future._complete(11.0, result=("OK", 1))
    assert fired == ["waiter"]
    assert future.wait(timeout=0.0) is True


# ----------------------------------------------------------------------
# Cross-thread waiting
# ----------------------------------------------------------------------


def test_wait_returns_immediately_when_done():
    future = make_future()
    future._complete(11.0, result=("OK", 1))
    assert future.wait(timeout=0.0) is True


def test_wait_times_out_false_then_succeeds():
    future = make_future()
    assert future.wait(timeout=0.01) is False

    timer = threading.Timer(0.05, lambda: future._complete(12.0, result=("OK", 2)))
    timer.start()
    try:
        assert future.wait(timeout=5.0) is True
        assert future.result() == ("OK", 2)
    finally:
        timer.cancel()


def test_wait_from_thread_while_completing_on_another():
    future = make_future()
    results = []

    def waiter():
        results.append(future.wait(timeout=5.0))

    threads = [threading.Thread(target=waiter) for _ in range(4)]
    for thread in threads:
        thread.start()
    future._complete(11.0, result=("OK", 3))
    for thread in threads:
        thread.join(timeout=5.0)
    assert results == [True, True, True, True]


# ----------------------------------------------------------------------
# The asyncio bridge
# ----------------------------------------------------------------------


def test_as_asyncio_resolves_with_result():
    async def scenario():
        future = make_future()
        mirror = future.as_asyncio()
        asyncio.get_running_loop().call_soon(
            lambda: future._complete(11.0, result=("OK", 4))
        )
        return await asyncio.wait_for(mirror, timeout=5.0)

    assert asyncio.run(scenario()) == ("OK", 4)


def test_as_asyncio_resolves_with_exception():
    async def scenario():
        future = make_future()
        mirror = future.as_asyncio()
        future._complete(11.0, exception=ValueError("replicated boom"))
        with pytest.raises(ValueError, match="replicated boom"):
            await asyncio.wait_for(mirror, timeout=5.0)

    asyncio.run(scenario())


def test_as_asyncio_timeout_leaves_operation_in_flight():
    async def scenario():
        future = make_future()
        mirror = future.as_asyncio()
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(asyncio.shield(mirror), timeout=0.01)
        assert not future.done
        future._complete(11.0, result=("OK", 5))
        return await asyncio.wait_for(mirror, timeout=5.0)

    assert asyncio.run(scenario()) == ("OK", 5)


def test_as_asyncio_cancellation_detaches_the_mirror():
    async def scenario():
        future = make_future()
        mirror = future.as_asyncio()
        mirror.cancel()
        await asyncio.sleep(0)
        # Late completion must not blow up on the cancelled mirror …
        future._complete(11.0, result=("OK", 6))
        await asyncio.sleep(0)
        assert mirror.cancelled()
        # … and the operation's own result is unaffected.
        assert future.result() == ("OK", 6)

    asyncio.run(scenario())


def test_as_asyncio_from_foreign_thread_resolution():
    async def scenario():
        future = make_future()
        mirror = future.as_asyncio()
        thread = threading.Timer(0.02, lambda: future._complete(11.0, result=("OK", 7)))
        thread.start()
        try:
            return await asyncio.wait_for(mirror, timeout=5.0)
        finally:
            thread.cancel()

    assert asyncio.run(scenario()) == ("OK", 7)


def test_as_asyncio_outside_a_loop_requires_explicit_loop():
    future = make_future()
    with pytest.raises(RuntimeError):
        future.as_asyncio()
