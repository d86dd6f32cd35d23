"""one-diagnosis-engine trip: the live monitor probes with its own threshold."""


class HealthMonitor:
    def _probe_view_churn(self, group):
        return sum(node.view_changes for node in group.nodes) >= 2
