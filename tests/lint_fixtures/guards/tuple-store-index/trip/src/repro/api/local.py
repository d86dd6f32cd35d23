"""tuple-store-index trip: counting copies the whole space."""


class LocalSpace:
    def __len__(self):
        return len(self._space.snapshot())
