"""One way to name the caller: every algorithm reaches its space through
``bind(process)`` and calls each operation exactly once.

Regression for the retired ``try: op(..., process=p) except TypeError:
op(...)`` idiom, which re-executed a *mutating* operation whenever a
``TypeError`` escaped from inside it.  The stub below executes on a real
PEATS, records the call, then raises ``TypeError`` from inside the named
operations: each algorithm module must invoke it once and let the error
propagate.
"""

import pytest

from repro.consensus import DefaultConsensus, StrongConsensus, WeakConsensus
from repro.model.faults import attack_peats
from repro.peo import PEATS
from repro.policy import (
    default_consensus_policy,
    lock_free_universal_policy,
    strong_consensus_policy,
    wait_free_universal_policy,
    weak_consensus_policy,
)
from repro.tspace.interface import BoundView
from repro.tuples import entry
from repro.universal import LockFreeUniversalConstruction, WaitFreeUniversalConstruction
from repro.universal.emulated import counter_type


class RecordThenRaise:
    """A shared space over a real PEATS whose ``failing`` operations take
    effect, are recorded, and then raise ``TypeError`` from the inside."""

    def __init__(self, policy, failing):
        self.peats = PEATS(policy)
        self.failing = failing
        self.calls = []

    def bind(self, process):
        return BoundView(self, process)

    def _run(self, operation, *arguments, process):
        result = getattr(self.peats, operation)(*arguments, process=process)
        if operation == self.failing:
            self.calls.append((operation, process))
            raise TypeError(f"raised inside {operation}")
        return result

    def out(self, entry, *, process=None):
        return self._run("out", entry, process=process)

    def rdp(self, template, *, process=None):
        return self._run("rdp", template, process=process)

    def inp(self, template, *, process=None):
        return self._run("inp", template, process=process)

    def cas(self, template, entry, *, process=None):
        return self._run("cas", template, entry, process=process)

    def snapshot(self):
        return self.peats.snapshot()


def _weak(failing):
    space = RecordThenRaise(weak_consensus_policy(), failing)
    return space, 0, lambda: WeakConsensus(space).propose(0, 1)


def _threshold_consensus(cls, policy):
    def scenario(failing):
        space = RecordThenRaise(policy(range(4), 1), failing)
        # t + 1 = 2 proposals are already visible, so process 0 goes
        # straight from its own out to the deciding cas.
        for other in (1, 2):
            space.peats.out(entry("PROPOSE", other, 1), process=other)
        return space, 0, lambda: cls(range(4), 1, space=space).propose(0, 1)

    return scenario


def _lock_free(failing):
    space = RecordThenRaise(lock_free_universal_policy(), failing)
    handle = LockFreeUniversalConstruction(counter_type(), space=space).handle("a")
    return space, "a", lambda: handle.invoke("increment")


def _wait_free(failing):
    processes = ["a", "b"]
    space = RecordThenRaise(wait_free_universal_policy(processes), failing)
    handle = WaitFreeUniversalConstruction(counter_type(), processes, space=space).handle("a")
    return space, "a", lambda: handle.invoke("increment")


def _attack_battery(failing):
    space = RecordThenRaise(strong_consensus_policy(range(4), 1), failing)
    return space, 3, lambda: attack_peats(space, 3, victims=[0], t=1)


@pytest.mark.parametrize(
    "scenario, failing",
    [
        (_weak, "cas"),
        (_threshold_consensus(StrongConsensus, strong_consensus_policy), "out"),
        (_threshold_consensus(StrongConsensus, strong_consensus_policy), "cas"),
        (_threshold_consensus(DefaultConsensus, default_consensus_policy), "out"),
        (_threshold_consensus(DefaultConsensus, default_consensus_policy), "cas"),
        (_lock_free, "cas"),
        (_wait_free, "out"),
        (_wait_free, "cas"),
        (_attack_battery, "out"),
        (_attack_battery, "cas"),
    ],
    ids=[
        "weak-cas",
        "strong-out",
        "strong-cas",
        "default-out",
        "default-cas",
        "lockfree-cas",
        "waitfree-out",
        "waitfree-cas",
        "faults-out",
        "faults-cas",
    ],
)
def test_a_type_error_inside_an_operation_propagates_after_one_call(scenario, failing):
    space, process, run = scenario(failing)
    with pytest.raises(TypeError, match=f"raised inside {failing}"):
        run()
    assert space.calls == [(failing, process)]
