"""one-perf-gate clean: the ladder may probe for msgpack."""

try:
    import msgpack
except ImportError:
    msgpack = None
