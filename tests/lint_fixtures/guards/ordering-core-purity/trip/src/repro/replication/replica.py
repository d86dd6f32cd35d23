"""ordering-core-purity trip: the second push queue is back."""


class Replica:
    def drain_notifications(self):
        return []
