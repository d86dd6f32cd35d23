"""tuple-store-index clean: the interface's fallback may count a snapshot."""


class TupleSpaceInterface:
    def __len__(self):
        return len(self.snapshot())
