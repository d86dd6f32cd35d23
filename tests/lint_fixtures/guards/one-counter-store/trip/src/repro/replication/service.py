"""one-counter-store trip: a plain-int mirror beside the registry child."""


class Service:
    def propose(self, batch):
        self._batches_proposed += 1
        self._obs_batches.inc()
