"""one-diagnosis-engine clean: the rules module may name its helpers freely."""

VIEW_CHURN = 4


def _analyze_votes(group):
    return sorted(group)


def _view_churn(facts):
    if facts.view_changes >= VIEW_CHURN:
        yield "warn", "group", "churn", {}


RULES = {"view-churn": _view_churn}
