"""Augmented tuple-space objects (Section 2.3 of the paper).

The central class is :class:`AugmentedTupleSpace`, an in-memory tuple space
providing the LINDA operations ``out``, ``rd``, ``in`` plus their
non-blocking variants ``rdp``/``inp`` and the conditional atomic swap
``cas`` that gives the object consensus number *n*.

The spaces here take no lock: the linearizability the paper assumes comes
from whoever serialises their operations — :class:`~repro.peo.PEATS` holds
one lock per operation (and feeds a :class:`HistoryRecorder`, from which
tests check the witness order and count operations/bits, experiments E1
and E6), a PBFT replica executes in the agreed order.

The structures here model the *local* (single address space) object; the
replicated, Byzantine fault-tolerant deployment of Fig. 2 lives in
:mod:`repro.replication`.
"""

from repro.tspace.augmented import AugmentedTupleSpace
from repro.tspace.history import HistoryRecorder, OperationRecord, check_sequential_consistency
from repro.tspace.interface import TupleSpaceInterface
from repro.tspace.space import TupleSpace

__all__ = [
    "TupleSpaceInterface",
    "TupleSpace",
    "AugmentedTupleSpace",
    "HistoryRecorder",
    "OperationRecord",
    "check_sequential_consistency",
]
