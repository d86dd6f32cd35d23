"""one-diagnosis-engine trip: the doctor analyses the same failure apart."""


def diagnose(timeline):
    return _analyze_view_churn(timeline)


def _analyze_view_churn(timeline):
    return sum(event["kind"] == "view-change" for event in timeline) >= 4
