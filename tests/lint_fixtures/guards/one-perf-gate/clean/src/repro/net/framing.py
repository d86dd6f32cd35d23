"""one-perf-gate clean: frames never import msgpack — a phrase the old
grep step matched as a substring of this docstring."""


def frame(payload):
    return bytes(payload)
