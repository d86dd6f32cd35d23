"""one-counter-store trip: a plain-int transport counter."""


class TcpTransport:
    def _drop(self, frame):
        self._dropped += 1
