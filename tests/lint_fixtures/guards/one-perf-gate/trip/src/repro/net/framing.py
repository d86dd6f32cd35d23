"""one-perf-gate trip: msgpack framing is back."""

import msgpack


def frame(payload):
    return msgpack.packb(payload)
