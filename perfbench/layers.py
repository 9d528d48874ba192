"""The per-layer metrics: which program functions the traced run wraps and
how their spans and counts become the reported figures.

``_ms`` metrics are self time summed over the traced rounds.  Each layer
metric is meant to explain one end-to-end metric (see ``README.md``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from perfbench.tracer import Probe, Tracer


def _count(name: str, of=lambda args, result: 1):
    def hook(args: tuple, kwargs: dict, result: Any, tracer: Tracer) -> None:
        tracer.add(name, of(args, result))
    return hook


def _selected(args: tuple, kwargs: dict, result: Any, tracer: Tracer) -> None:
    tracer.add("algorithms.evaluated", result.evaluated_elements)
    tracer.add("algorithms.active", args[1].context.active_count)
    tracer.add("algorithms.queries", 1)


def _routed(args: tuple, kwargs: dict, result: Any, tracer: Tracer) -> None:
    tracer.add("cluster.routed", sum(len(bucket.elements) for bucket in result))
    tracer.add("cluster.elements", len(args[1]))


PROBES: List[Probe] = [
    Probe("repro.streams.watermark:StreamIngestor.push_many", "streams",
          _count("streams.buckets_sealed", lambda args, result: result)),
    Probe("repro.core.scoring:ProfileBuilder.build_many", "scoring.build",
          _count("scoring.profiles_built", lambda args, result: len(result))),
    Probe("repro.store.window:ColumnarWindow.insert_many", "store.insert"),
    Probe("repro.store.window:ColumnarWindow.advance_to", "store.expire",
          _count("store.expired_elements", lambda args, result: len(result))),
    Probe("repro.core.ranked_list:RankedListIndex.bulk_update", "ranked_list.update"),
    Probe("repro.core.processor:KSIRProcessor.process_bucket", "processor.ingest"),
    Probe("repro.core.processor:KSIRProcessor._build_snapshot", "processor.snapshot"),
    Probe("repro.topics.inference:TopicInferencer.infer", "topics.infer"),
    Probe("repro.core.algorithms.base:KSIRAlgorithm.select",
          lambda args: f"algorithms.{args[0].name}_select", _selected),
    Probe("repro.service.scheduler:IncrementalScheduler.plan", "service.plan"),
    Probe("repro.service.engine:ServiceEngine._evaluate_many", "service.evaluate", fork_point=True),
    Probe("repro.service.engine:ServiceEngine._evaluate", "service.evaluate",
          _count("service.evaluations")),
    Probe("repro.api.engine:KSIREngine.ingest_bucket", "engine.ingest_bucket"),
    Probe("repro.cluster.partition:ShardPlanner.route_bucket", "cluster.route", _routed),
    Probe("repro.cluster.worker:ShardWorker.ingest", "cluster.shard_ingest"),
    Probe("repro.cluster.worker:ShardWorker.export_candidates", "cluster.export"),
    Probe("repro.cluster.coordinator:merge_candidate_pools", "cluster.merge"),
]

#: Kernel name → metric, read from ``repro.kernels.kernel_stats()``.
KERNELS = {
    "delta_topic_sums": "kernels.delta_topic_sums_ms",
    "ranked_merge": "kernels.ranked_merge_ms",
    "window_scan": "kernels.window_scan_ms",
}

#: Every per-layer metric: name → (unit, the probe targets it needs).
METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {}


def _metric(name: str, unit: str, *targets: str) -> None:
    METRICS[name] = (unit, targets)


_STREAMS = "repro.streams.watermark:StreamIngestor.push_many"
_SELECT = "repro.core.algorithms.base:KSIRAlgorithm.select"
_KERNELS = "repro.kernels:kernel_stats"
_metric("streams.self_ms", "ms", _STREAMS)
_metric("streams.buckets_sealed", "count", _STREAMS)
_metric("streams.late_events", "count", _STREAMS)
_metric("scoring.build_ms", "ms", "repro.core.scoring:ProfileBuilder.build_many")
_metric("scoring.profiles_built", "count", "repro.core.scoring:ProfileBuilder.build_many")
_metric("store.insert_ms", "ms", "repro.store.window:ColumnarWindow.insert_many")
_metric("store.expire_ms", "ms", "repro.store.window:ColumnarWindow.advance_to")
_metric("store.expired_elements", "count", "repro.store.window:ColumnarWindow.advance_to")
_metric("ranked_list.update_ms", "ms", "repro.core.ranked_list:RankedListIndex.bulk_update")
_metric("ranked_list.update_calls", "count", "repro.core.ranked_list:RankedListIndex.bulk_update")
for _name in KERNELS.values():
    _metric(_name, "ms", _KERNELS)
_metric("kernels.calls", "count", _KERNELS)
_metric("processor.ingest_self_ms", "ms", "repro.core.processor:KSIRProcessor.process_bucket")
_metric("processor.snapshot_ms", "ms", "repro.core.processor:KSIRProcessor._build_snapshot")
_metric("processor.snapshot_builds", "count", "repro.core.processor:KSIRProcessor._build_snapshot")
_metric("topics.infer_ms", "ms", "repro.topics.inference:TopicInferencer.infer")
_metric("algorithms.mttd_select_ms", "ms", _SELECT)
_metric("algorithms.mtts_select_ms", "ms", _SELECT)
_metric("algorithms.evaluated_per_query", "elements", _SELECT)
_metric("algorithms.evaluated_share", "ratio", _SELECT)
_metric("service.plan_ms", "ms", "repro.service.scheduler:IncrementalScheduler.plan")
_metric("service.evaluations", "count", "repro.service.engine:ServiceEngine._evaluate")
_metric("service.evaluate_ms", "ms", "repro.service.engine:ServiceEngine._evaluate_many",
        "repro.service.engine:ServiceEngine._evaluate")
_metric("service.reused_share", "ratio")
_metric("server.request_self_ms", "ms", "repro.api.engine:KSIREngine.ingest_bucket")
_metric("server.fanout_ms", "ms")
_metric("server.pushes", "count")
_metric("server.push_bytes", "bytes")
_metric("cluster.route_ms", "ms", "repro.cluster.partition:ShardPlanner.route_bucket")
_metric("cluster.shard_ingest_ms", "ms", "repro.cluster.worker:ShardWorker.ingest")
_metric("cluster.export_ms", "ms", "repro.cluster.worker:ShardWorker.export_candidates")
_metric("cluster.merge_ms", "ms", "repro.cluster.coordinator:merge_candidate_pools")
_metric("cluster.routed_per_element", "ratio", "repro.cluster.partition:ShardPlanner.route_bucket")
_metric("cluster.merged_candidates_per_query", "elements")
_metric("host.probe_ms", "ms")
_metric("trace.overhead_share", "ratio")


def kernel_snapshot() -> Dict[str, Tuple[int, int]]:
    """``{kernel: (calls, total_ns)}`` now, or empty when the layer is gone."""
    try:
        from repro.kernels import kernel_stats
    except ImportError:
        return {}
    return {name: (entry["calls"], entry["total_ns"])
            for name, entry in kernel_stats().get("per_kernel", {}).items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, kernels_seen: bool, extra: Dict[str, float]) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer figures and the names of those reported missing."""
    ms, calls, counts = tracer.self_ms, tracer.calls, tracer.counts
    missing_targets = set(tracer.missing)
    if not kernels_seen:
        missing_targets.add(_KERNELS)
    values = {
        "streams.self_ms": ms["streams"],
        "streams.buckets_sealed": counts["streams.buckets_sealed"],
        "streams.late_events": counts["streams.late_events"],
        "scoring.build_ms": ms["scoring.build"],
        "scoring.profiles_built": counts["scoring.profiles_built"],
        "store.insert_ms": ms["store.insert"],
        "store.expire_ms": ms["store.expire"],
        "store.expired_elements": counts["store.expired_elements"],
        "ranked_list.update_ms": ms["ranked_list.update"],
        "ranked_list.update_calls": calls["ranked_list.update"],
        "kernels.calls": counts["kernels.calls"],
        "processor.ingest_self_ms": ms["processor.ingest"],
        "processor.snapshot_ms": ms["processor.snapshot"],
        "processor.snapshot_builds": calls["processor.snapshot"],
        "topics.infer_ms": ms["topics.infer"],
        "algorithms.mttd_select_ms": ms["algorithms.mttd_select"],
        "algorithms.mtts_select_ms": ms["algorithms.mtts_select"],
        "algorithms.evaluated_per_query": _ratio(counts["algorithms.evaluated"], counts["algorithms.queries"]),
        "algorithms.evaluated_share": _ratio(counts["algorithms.evaluated"], counts["algorithms.active"]),
        "service.plan_ms": ms["service.plan"],
        "service.evaluations": counts["service.evaluations"],
        "service.evaluate_ms": ms["service.evaluate"],
        "service.reused_share": _ratio(
            counts["service.reused"], counts["service.reused"] + counts["service.standing_evaluations"]),
        "server.request_self_ms": max(
            0.0, counts["server.request_ms"] - tracer.inclusive_ms["engine.ingest_bucket"])
        if counts["server.request_ms"] else 0.0,
        "server.fanout_ms": counts["server.fanout_ms"],
        "server.pushes": counts["server.pushes"],
        "server.push_bytes": counts["server.push_bytes"],
        "cluster.route_ms": ms["cluster.route"],
        "cluster.shard_ingest_ms": ms["cluster.shard_ingest"],
        "cluster.export_ms": ms["cluster.export"],
        "cluster.merge_ms": ms["cluster.merge"],
        "cluster.routed_per_element": _ratio(counts["cluster.routed"], counts["cluster.elements"]),
        "cluster.merged_candidates_per_query": _ratio(
            counts["cluster.merged_candidates"], counts["cluster.queries"]),
    }
    for kernel, name in KERNELS.items():
        values[name] = counts[f"kernel.{kernel}_ns"] / 1e6
    values.update(extra)
    missing = sorted(
        name for name, (_, targets) in METRICS.items() if any(t in missing_targets for t in targets)
    )
    for name in missing:
        values[name] = 0.0
    return {name: float(values[name]) for name in METRICS}, missing


def add_kernel_delta(tracer: Tracer, before: Dict[str, Tuple[int, int]],
                     after: Dict[str, Tuple[int, int]]) -> None:
    """Fold one traced round's kernel counter deltas into the tracer."""
    for name, (calls, total_ns) in after.items():
        old_calls, old_ns = before.get(name, (0, 0))
        tracer.add("kernels.calls", calls - old_calls)
        tracer.add(f"kernel.{name}_ns", total_ns - old_ns)
