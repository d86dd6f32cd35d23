"""in-process-delivery clean: crypto.py serialises, once per payload."""

import json


def canonical_bytes(value):
    return json.dumps(value, sort_keys=True).encode()


def digest_input(value):
    return canonical_bytes(value)
