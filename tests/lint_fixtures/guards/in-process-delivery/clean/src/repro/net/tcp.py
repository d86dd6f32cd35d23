"""in-process-delivery clean: the callable and its arguments go to
_contained, and callbacks queue on the reactor's mailbox."""


class TcpTransport:
    def _on_frame(self, handler, message):
        self._contained(handler, message)
        self.reactor.call_soon(self._drain)
