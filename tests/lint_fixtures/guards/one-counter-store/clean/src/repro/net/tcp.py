"""one-counter-store clean: the delivery core's child counts the drop."""


class TcpTransport:
    def _drop(self, frame):
        dropped = self._obs_dropped
        dropped.inc()
