"""The per-layer numbers a traced run derives from its spans and counts."""

from __future__ import annotations

from benchmarks.ladder.tracing import LayerTracer
from benchmarks.ladder.workloads import Outcome, Sample

__all__ = ["traced_layer_metrics"]


def traced_layer_metrics(
    traced: Outcome,
    tracer: LayerTracer,
    untraced: Outcome,
    txn_only: tuple[int, int] | None = None,
) -> dict[str, Sample]:
    """Per-layer counts, shares and handler times of one traced run.

    ``traced`` and ``untraced`` are the same workload at the same length,
    with and without the wrappers; ``txn_only`` is ``(messages,
    transfers)`` of a transfers-only scenario (escrow workload only).  A
    layer the workload never enters reads 0.
    """
    ops = max(traced.completed, 1)
    wall_s = traced.wall_s
    totals = tracer.totals()
    layers = tracer.layer_self_seconds()
    counts = tracer.counts
    counters = traced.counters

    def calls(prefix: str) -> int:
        return sum(entry.calls for name, entry in totals.items() if name.startswith(prefix))

    def per_op(count: float) -> Sample:
        return Sample(count / ops, ops)

    def share(layer: str) -> Sample:
        return Sample(layers.get(layer, 0.0) / wall_s, ops)

    def mean_us(name: str) -> Sample:
        entry = totals.get(name)
        if entry is None or not entry.calls:
            return Sample(0.0, 0)
        return Sample(entry.total_s / entry.calls * 1e6, entry.calls)

    def ratio(numerator: float, denominator: float, scale: float = 1.0) -> Sample:
        if not denominator:
            return Sample(0.0, 0)
        return Sample(numerator / denominator * scale, int(denominator))

    api = totals.get("api.submit")
    metrics = {
        "tuples.match_calls_per_op": per_op(counts["tuples.match"]),
        "tspace.busy_share": share("tspace"),
        "policy.authorize_calls_per_op": per_op(calls("policy.authorize")),
        "policy.busy_share": share("policy"),
        "crypto.mac_calls_per_op": per_op(calls("crypto.mac")),
        "crypto.key_derivations_per_op": per_op(counts["crypto.shared_key"]),
        "crypto.canonical_calls_per_op": per_op(counts["crypto.canonical"]),
        "crypto.busy_share": share("crypto"),
        "codec.calls_per_op": per_op(calls("codec.")),
        "codec.busy_share": share("codec"),
        "pbft.request_us": mean_us("pbft.request"),
        "pbft.preprepare_us": mean_us("pbft.preprepare"),
        "pbft.prepare_us": mean_us("pbft.prepare"),
        "pbft.commit_us": mean_us("pbft.commit"),
        "pbft.checkpoint_us": mean_us("pbft.checkpoint"),
        "pbft.handler_calls_per_op": per_op(calls("pbft.")),
        "pbft.busy_share": share("pbft"),
        "pbft.batch_size_mean": ratio(
            counters.get("requests_executed", 0.0), counters.get("batches_proposed", 0.0)
        ),
        "pbft.view_changes": Sample(counters.get("view_changes", 0.0)),
        "replica.execute_us": mean_us("replica.execute"),
        "replica.busy_share": share("replica"),
        "client.submit_us": mean_us("client.submit"),
        "client.on_reply_us": mean_us("client.on_reply"),
        "client.retransmissions_per_kop": ratio(
            counters.get("client_retransmissions", 0.0),
            counters.get("client_requests", 0.0),
            1000.0,
        ),
        "net.send_us": mean_us("net.send"),
        "net.frames_per_op": per_op(calls("net.send")),
        # In-memory transports put no bytes on a wire: does not apply there.
        "net.bytes_per_frame": (
            ratio(counters["bytes_sent"], counters.get("frames_sent", 0.0))
            if counters.get("bytes_sent")
            else Sample(0.0, 0)
        ),
        "net.rejected": Sample(counters.get("net_rejected", 0.0)),
        "net.handler_errors": Sample(counters.get("net_handler_errors", 0.0)),
        "cluster.scatter_probes_per_op": per_op(counts["cluster.scatter_probe"]),
        "txn.msgs_per_transfer": ratio(*txn_only) if txn_only else Sample(0.0, 0),
        "txn.abort_share_conflict": ratio(
            counters.get("aborted_locked", 0.0), counters.get("transfers", 0.0)
        ),
        "txn.abort_share_no_match": ratio(
            counters.get("aborted_no_match", 0.0), counters.get("transfers", 0.0)
        ),
        "txn.force_per_ktransfer": ratio(
            counts["client.submit.txn_force"], counters.get("transfers", 0.0), 1000.0
        ),
        "notify.pushes_per_wake": ratio(counts["net.send.Notify"], counters.get("waits", 0.0)),
        "notify.register_msgs_per_wait": ratio(
            counts["net.send.RegisterWaiter"], counters.get("waits", 0.0)
        ),
        "api.submit_us": (
            Sample(api.self_s / api.calls * 1e6, api.calls) if api and api.calls else Sample(0.0, 0)
        ),
        "trace.overhead_factor": Sample(
            untraced.metrics["ops_per_s"].value / traced.metrics["ops_per_s"].value
        ),
    }
    return metrics
