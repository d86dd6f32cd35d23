"""fault-free-ordering-core trip: the node asks whether it is faulty."""

from repro.replication.adversary import ReplicaFaultMode


class OrderingNode:
    @property
    def is_silent(self):
        return self.fault_mode is ReplicaFaultMode.MUTE

    def _answer_read(self, request):
        return self.application.execute_read_only(request)
