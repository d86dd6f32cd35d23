"""repro.api — one future-first tuple-space API over every backend.

The paper's point is that a single augmented tuple-space abstraction
serves every coordination construction; this package makes the library
honour that across its three backends — local, replicated (a one-shard
cluster) and sharded.  :func:`connect` builds (or wraps) a deployment
and returns a uniform :class:`Space` handle:

>>> from repro.api import connect                          # doctest: +SKIP
>>> space = connect("sharded", policy=policy, shards=4)    # doctest: +SKIP
>>> view = space.bind("p1")                                # doctest: +SKIP
>>> view.out(entry("JOB", 1)); view.inp(template(ANY, 1))  # doctest: +SKIP

Every operation has a blocking and a ``submit_*`` (future) form, timeouts
and denials behave identically everywhere, and the sharded backend adds
cross-shard scatter-gather for wildcard-name ``rdp``/``inp`` — the one
capability only this layer can express.
"""

from repro.futures import OperationFuture
from repro.api.space import BLOCKING_OPERATIONS, PROBE_OPERATIONS, BoundSpace, Space
from repro.api.local import LocalSpace
from repro.api.sharded import ShardedSpace
from repro.api.connect import BACKENDS, connect

__all__ = [
    "connect",
    "BACKENDS",
    "Space",
    "BoundSpace",
    "OperationFuture",
    "LocalSpace",
    "ShardedSpace",
    "PROBE_OPERATIONS",
    "BLOCKING_OPERATIONS",
]
