"""in-process-delivery trip: a closure per delivery, a loop callback
beside the mailbox and a second verify site."""


class TcpTransport:
    def _on_frame(self, handler, message):
        self._contained(lambda: handler(message))
        self._loop.call_soon(self._drain)
        self._loop.call_soon_threadsafe(self._wake)
        return self._authenticator.verify(message.sender, message.body, message.mac)
