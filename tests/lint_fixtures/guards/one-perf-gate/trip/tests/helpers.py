"""one-perf-gate trip: the lock wrapper PEATS replaced is imported again."""

from repro.tspace import LinearizableTupleSpace
