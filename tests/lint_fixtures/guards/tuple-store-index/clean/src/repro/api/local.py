"""tuple-store-index clean: count the space, not a copy of it."""


class LocalSpace:
    def __len__(self):
        return len(self._space)
