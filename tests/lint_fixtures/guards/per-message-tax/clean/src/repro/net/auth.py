"""per-message-tax clean: the one-shot C path."""

import hmac


def tag(key, body):
    return hmac.digest(key, body, "sha256")
