"""one-counter-store clean: the registry child is the only count."""


class Service:
    def propose(self, batch):
        self._obs_batches.inc()

    @property
    def statistics(self):
        return {"batches_proposed": int(self._obs_batches.value)}
