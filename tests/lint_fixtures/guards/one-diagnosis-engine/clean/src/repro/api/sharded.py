"""one-diagnosis-engine clean: a scatter probe outside repro.obs is no diagnoser."""


class ShardedSpace:
    def _probe_round(self):
        return []
