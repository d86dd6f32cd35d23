"""per-message-tax trip: an HMAC object per message."""

import hmac


def tag(key, body):
    return hmac.new(key, body, "sha256").digest()
