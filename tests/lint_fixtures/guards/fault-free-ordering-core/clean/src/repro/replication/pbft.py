"""fault-free-ordering-core clean: the node is written for correct nodes;
whatever a faulty one does happens below it, in the delivery core."""


class OrderingNode:
    def _multicast(self, payload):
        self.network.broadcast(self.replica_id, self.replica_ids, payload)

    def _answer_read(self, request):
        return self.application.execute_read_only(request)
