"""one-perf-gate trip: a second comparator beside the ladder."""
