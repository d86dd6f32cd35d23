"""one-diagnosis-engine clean: the monitor builds facts and runs the table
(a docstring may still say _probe_view_churn is gone)."""

from repro.obs.rules import RULES


class HealthMonitor:
    def check(self, facts):
        return [finding for rule in RULES.values() for finding in rule(facts)]
