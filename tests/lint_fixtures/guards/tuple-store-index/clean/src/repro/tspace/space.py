"""tuple-store-index clean: ids are monotonic, so a bucket is never
sorted() — it is already oldest-first."""


class TupleSpace:
    def _probe(self, bucket):
        for entry in bucket:
            return entry
        return None
