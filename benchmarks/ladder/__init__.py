"""The benchmark of record: five workloads, every layer priced from outside.

``BENCHMARK.json`` at the repository root names this package's entry point
(``bench.py``), its workloads and its metrics; ``README.md`` here says why
each exists and how to read a run.  ``python -m benchmarks.ladder run`` is
the one command that prints every metric.
"""
