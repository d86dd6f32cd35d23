"""in-process-delivery clean: the one verify site."""


class DeliveryCore:
    def _authentic(self, message):
        return self._authenticator.verify(message.sender, message.body, message.mac)
