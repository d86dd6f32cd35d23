"""Noise control for wall-clock measurement on a shared VM.

Per-op CPU cost on the sizing machine swung by up to 50 % for 10–30 s at
a time while quiet-period segment medians agreed within 7 %.  Every
wall-clock segment is therefore bracketed by a fixed pure-Python
calibration loop, and a segment whose bracketing readings exceed the
run's best reading by more than :data:`NOISE_TOLERANCE` is set aside and
measured again.  Rejection keys on this independent signal only — never
on the value being measured, which would bias it.

No segment is dropped for its value; which statistic of the kept
segments a metric then reports is the caller's choice.
:func:`median_and_spread` gives the median and inter-quartile distance;
``workloads.best_quartile`` is what the wall-clock metrics report, with
that median beside it, and says why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import pickle
import statistics
import time
from typing import Any, Callable, Generic, Optional, Sequence, TypeVar

__all__ = [
    "NOISE_TOLERANCE",
    "calibrate",
    "Bracketed",
    "Measured",
    "NoiseGate",
    "measure_segments",
    "median_and_spread",
]

#: A segment is noisy when a bracketing calibration reading exceeds the
#: run's best reading by more than this share.
NOISE_TOLERANCE = 0.15
#: Fewer quiet segments than this and the run reports all of them instead
#: (a median over one or two survivors is worse than a noisy median).
MIN_QUIET = 3
#: One reading is the fastest of this many passes over the loop, scaled
#: back up to the whole: a pre-emption inside one pass must not read as a
#: slow machine, while a slow machine slows every pass.
CALIBRATION_PASSES = 10
#: Iterations per pass; the ten passes take ≈10 ms on the sizing machine.
CALIBRATION_ROUNDS = 300

_KEY = b"ladder-calibration-key"

T = TypeVar("T")


def calibrate() -> float:
    """One reading of the calibration loop, in milliseconds.

    HMAC-SHA256 + ``pickle.dumps`` + a dict store: the same interpreter
    paths the protocol stack leans on, over inputs that never change.
    """
    fastest = float("inf")
    for _ in range(CALIBRATION_PASSES):
        store: dict[int, bytes] = {}
        started = time.perf_counter()
        for index in range(CALIBRATION_ROUNDS):
            blob = pickle.dumps((index, "calibration", (index, index + 1)), protocol=4)
            store[index & 255] = hmac.new(_KEY, blob, hashlib.sha256).digest()
        fastest = min(fastest, time.perf_counter() - started)
    return fastest * CALIBRATION_PASSES * 1000.0


@dataclasses.dataclass
class Bracketed(Generic[T]):
    """One segment's value with the calibration readings around it."""

    index: int
    value: T
    before_ms: float
    after_ms: float

    @property
    def reading_ms(self) -> float:
        return max(self.before_ms, self.after_ms)


@dataclasses.dataclass
class Measured(Generic[T]):
    """What :func:`measure_segments` hands back."""

    #: The best (quietest) attempt of every segment index, in index order.
    segments: list[Bracketed[T]]
    #: The subset measured while the machine was quiet (or all of them
    #: when fewer than :data:`MIN_QUIET` were).
    quiet: list[Bracketed[T]]
    #: Median of every calibration reading taken, in milliseconds.
    calib_ms: float
    #: Attempts set aside because their bracket was noisy.
    rejected: int
    #: Every attempt made, reruns included, in the order they ran.
    attempts: list[Bracketed[T]]


class NoiseGate:
    """Brackets pieces of work with calibration readings and remembers the
    best reading of the whole run, set-up and measurement alike."""

    def __init__(self) -> None:
        self.best_ms = float("inf")
        self.readings_ms: list[float] = []

    def bracket(self, index: int, run: Callable[[int], T]) -> Bracketed[T]:
        before = calibrate()
        value = run(index)
        after = calibrate()
        self.readings_ms.extend((before, after))
        self.best_ms = min(self.best_ms, before, after)
        return Bracketed(index, value, before, after)

    def noisy(self, bracketed: Bracketed[Any]) -> bool:
        return bracketed.reading_ms > self.best_ms * (1.0 + NOISE_TOLERANCE)

    def quiet(self, items: Sequence[Bracketed[T]]) -> list[Bracketed[T]]:
        """The items measured while the machine was quiet — all of them
        when fewer than :data:`MIN_QUIET` were."""
        kept = [item for item in items if not self.noisy(item)]
        return kept if len(kept) >= min(MIN_QUIET, len(items)) else list(items)


def measure_segments(
    run_segment: Callable[[int], T],
    gate: NoiseGate,
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    min_segments: int = MIN_QUIET,
) -> Measured[T]:
    """Run bracketed segments until the budget is spent.

    Exactly one of ``seconds`` (run fresh segment indices until that much
    wall time has passed and at least ``min_segments`` quiet segments
    exist) or ``count`` (run indices ``0..count-1``; a noisy index is run
    again) is given.  Reruns are bounded: a time-budgeted run stops at
    twice its budget, a counted run spends at most ``count`` reruns.
    """
    if (seconds is None) == (count is None):
        raise ValueError("pass exactly one of seconds= or count=")
    attempts: list[Bracketed[T]] = []
    started = time.perf_counter()

    def attempt(index: int) -> Bracketed[T]:
        attempts.append(gate.bracket(index, run_segment))
        return attempts[-1]

    if count is not None:
        reruns_left = count
        for index in range(count):
            while gate.noisy(attempt(index)) and reruns_left > 0:
                reruns_left -= 1
    else:
        assert seconds is not None
        index = 0
        while True:
            attempt(index)
            index += 1
            elapsed = time.perf_counter() - started
            enough = sum(1 for item in attempts if not gate.noisy(item)) >= min_segments
            if (elapsed >= seconds and enough) or elapsed >= 2.0 * seconds:
                if len(attempts) >= min_segments:
                    break

    # The quietest attempt of each index stands for it; judged against the
    # run's final best reading (an early attempt was only compared with
    # the best seen so far).
    by_index: dict[int, Bracketed[T]] = {}
    for item in attempts:
        held = by_index.get(item.index)
        if held is None or item.reading_ms < held.reading_ms:
            by_index[item.index] = item
    segments = [by_index[index] for index in sorted(by_index)]
    quiet = gate.quiet(segments)
    return Measured(
        segments=segments,
        quiet=quiet,
        calib_ms=statistics.median(gate.readings_ms),
        rejected=len(attempts) - len(quiet),
        attempts=attempts,
    )


def median_and_spread(values: Sequence[float]) -> tuple[float, float]:
    """Median of ``values`` and their inter-quartile distance (0 for < 2)."""
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    quartiles = statistics.quantiles(values, n=4)
    return median, quartiles[2] - quartiles[0]
