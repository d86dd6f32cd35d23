"""per-message-tax clean: crypto.py derives each pair's key once."""

import hmac


class MessageAuthenticator:
    def __init__(self, secret):
        self._secret = secret
        self._keys = {}

    def shared_key(self, a, b):
        return hmac.digest(self._secret, repr(sorted((a, b))).encode(), "sha256")

    def mac(self, a, b, body):
        key = self._keys.get((a, b))
        if key is None:
            key = self._keys[(a, b)] = self.shared_key(a, b)
        return hmac.digest(key, body, "sha256")
