"""tuple-store-index trip: a probe sorts its bucket."""


class TupleSpace:
    def _probe(self, bucket):
        return sorted(bucket, key=lambda entry: entry.id)
