"""A library of Byzantine behaviours.

Two flavours are provided:

* **consensus strategies** — callables ``(consensus, process) -> generator``
  pluggable into :func:`repro.consensus.runner.run_consensus` as the
  ``byzantine`` mapping.  Each generator performs its misbehaviour in small
  steps so the deterministic runner can interleave it with the correct
  processes, always through ``consensus.space.bind(process)``;
* **space attack drivers** — :func:`attack_peats` issues a battery of
  forbidden invocations directly against a PEATS and reports how many were
  denied, which experiment E5 uses to quantify policy enforcement.

All behaviours are *legal* in the Byzantine model: they only ever call the
object's public operations under their own (authenticated) identity — the
model explicitly rules out impersonation, and the impersonation strategies
below exist precisely to show the policy rejecting the attempt.
"""

from __future__ import annotations

from typing import Any, Generator, Hashable, Iterable, Sequence

from repro.policy.library import ANN, BOTTOM, DECISION, PROPOSE, SEQ
from repro.tuples import ANY, Formal, entry, template

__all__ = [
    "silent_byzantine",
    "double_proposing_byzantine",
    "impersonating_byzantine",
    "unjustified_deciding_byzantine",
    "bottom_forcing_byzantine",
    "spamming_byzantine",
    "conflicting_value_byzantine",
    "attack_peats",
    "AttackReport",
]


# ----------------------------------------------------------------------
# Consensus strategies (step generators).
# ----------------------------------------------------------------------


def silent_byzantine(consensus: Any, process: Hashable) -> Generator[None, None, Any]:
    """The classic worst case for threshold protocols: never participate."""
    return
    yield  # pragma: no cover - makes this a generator function


def double_proposing_byzantine(value_a: Any = 0, value_b: Any = 1):
    """Propose two different values (the second ``out`` must be denied)."""

    def strategy(consensus: Any, process: Hashable) -> Generator[None, None, Any]:
        space = consensus.space.bind(process)
        space.out(entry(PROPOSE, process, value_a))
        yield
        space.out(entry(PROPOSE, process, value_b))
        yield
        return None

    return strategy


def conflicting_value_byzantine(value: Any):
    """Participate normally but with a chosen (possibly minority) value."""

    def strategy(consensus: Any, process: Hashable) -> Generator[None, None, Any]:
        space = consensus.space.bind(process)
        space.out(entry(PROPOSE, process, value))
        yield
        return None

    return strategy


def impersonating_byzantine(victim: Hashable, value: Any = 1):
    """Try to publish a proposal in the name of another process."""

    def strategy(consensus: Any, process: Hashable) -> Generator[None, None, Any]:
        space = consensus.space.bind(process)
        space.out(entry(PROPOSE, victim, value))
        yield
        return None

    return strategy


def unjustified_deciding_byzantine(value: Any = 1, fake_supporters: Sequence[Hashable] = ()):
    """Try to commit a DECISION whose justification set is fabricated."""

    def strategy(consensus: Any, process: Hashable) -> Generator[None, None, Any]:
        space = consensus.space.bind(process)
        justification = frozenset(fake_supporters) if fake_supporters else frozenset({process})
        space.cas(
            template(DECISION, Formal("d"), ANY),
            entry(DECISION, value, justification),
        )
        yield
        return None

    return strategy


def bottom_forcing_byzantine():
    """Try to force the default consensus to ``⊥`` with a bogus proof."""

    def strategy(consensus: Any, process: Hashable) -> Generator[None, None, Any]:
        space = consensus.space.bind(process)
        bogus_proof = frozenset({(0, frozenset({process}))})
        space.cas(
            template(DECISION, Formal("d"), ANY),
            entry(DECISION, BOTTOM, bogus_proof),
        )
        yield
        return None

    return strategy


def spamming_byzantine(rounds: int = 5):
    """Hammer the space with forbidden operations for several rounds."""

    def strategy(consensus: Any, process: Hashable) -> Generator[None, None, Any]:
        space = consensus.space.bind(process)
        for round_number in range(rounds):
            space.out(entry("GARBAGE", process, round_number))
            space.inp(template(DECISION, Formal("d"), ANY))
            space.inp(template(PROPOSE, ANY, Formal("v")))
            yield
        return None

    return strategy


# ----------------------------------------------------------------------
# Direct PEATS attack battery (experiment E5).
# ----------------------------------------------------------------------


class AttackReport:
    """Outcome of an attack battery against a policy-enforced space."""

    def __init__(self) -> None:
        self.attempts: list[tuple[str, bool]] = []

    def record(self, description: str, succeeded: bool) -> None:
        self.attempts.append((description, succeeded))

    @property
    def total(self) -> int:
        return len(self.attempts)

    @property
    def succeeded(self) -> int:
        return sum(1 for _, ok in self.attempts if ok)

    @property
    def denied(self) -> int:
        return self.total - self.succeeded

    def succeeded_attacks(self) -> list[str]:
        return [description for description, ok in self.attempts if ok]

    def __repr__(self) -> str:
        return f"AttackReport(total={self.total}, denied={self.denied})"


def attack_peats(
    space: Any,
    attacker: Hashable,
    *,
    victims: Iterable[Hashable] = (),
    t: int = 1,
) -> AttackReport:
    """Throw a battery of forbidden invocations at a consensus PEATS.

    The battery covers the attack surface of the Figs. 4/5 policies:
    impersonation, double proposals, tuple removal, garbage insertion,
    unjustified decisions and bottom forcing.  Returns an
    :class:`AttackReport`; a correctly configured policy denies everything
    except (possibly) the attacker's own single legitimate proposal, which
    is not part of the battery.
    """
    report = AttackReport()
    victims = list(victims)
    view = space.bind(attacker)

    def attempt(description: str, result: Any) -> None:
        if isinstance(result, tuple):
            result = result[0]
        report.record(description, bool(result))

    attempt(
        "remove the DECISION tuple",
        view.inp(template(DECISION, Formal("d"), ANY)) is not None,
    )
    attempt(
        "remove another process's PROPOSE tuple",
        view.inp(template(PROPOSE, ANY, Formal("v"))) is not None,
    )
    attempt("insert a garbage tuple", view.out(entry("GARBAGE", attacker, 0)))
    attempt(
        "insert a malformed PROPOSE tuple (wrong arity)",
        view.out(entry(PROPOSE, attacker)),
    )
    for victim in victims:
        attempt(
            f"impersonate {victim!r} in a PROPOSE tuple",
            view.out(entry(PROPOSE, victim, 1)),
        )
    attempt(
        "decide with a justification smaller than t+1",
        view.cas(
            template(DECISION, Formal("d"), ANY),
            entry(DECISION, 1, frozenset({attacker})),
        ),
    )
    attempt(
        "decide with a justification of unknown processes",
        view.cas(
            template(DECISION, Formal("d"), ANY),
            entry(DECISION, 1, frozenset({f"ghost-{i}" for i in range(t + 1)})),
        ),
    )
    attempt(
        "decide without a formal field in the template",
        view.cas(
            template(DECISION, 1, ANY),
            entry(DECISION, 1, frozenset({attacker})),
        ),
    )
    attempt(
        "force the default value with a bogus proof",
        view.cas(
            template(DECISION, Formal("d"), ANY),
            entry(DECISION, BOTTOM, frozenset({(0, frozenset({attacker}))})),
        ),
    )
    attempt(
        "thread a SEQ tuple out of order",
        view.cas(
            template(SEQ, 100, Formal("x")),
            entry(SEQ, 100, "bogus-invocation"),
        ),
    )
    attempt(
        "announce on behalf of another index",
        view.out(entry(ANN, 99, "bogus-invocation")),
    )
    return report
