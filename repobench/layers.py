"""Per-layer metrics of a traced run, from the dumped spans.

Naming: a layer is a ``repro`` module.  ``*_us`` metrics are mean call
durations; ``*_ms`` metrics are per-operation totals of self time
(nested wrapped calls are counted in their own layer) unless noted;
counts are per operation; ratios are plain ratios.  A metric whose
layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

import common
import stats
import tracer

#: (name, unit, better) of every per-layer metric, in report order.
CATALOGUE: Tuple[Tuple[str, str, str], ...] = (
    ("serve.batch_wait_ms", "ms", "lower"),
    ("serve.execute_ms", "ms", "lower"),
    ("serve.return_ms", "ms", "lower"),
    ("serve.http_self_ms", "ms", "lower"),
    ("serve.p50_ms.measure", "ms", "lower"),
    ("serve.p50_ms.table", "ms", "lower"),
    ("serve.p50_ms.arch_describe", "ms", "lower"),
    ("serve.batch_size", "jobs/batch", "higher"),
    ("serve.coalesced_ratio", "ratio", "lower"),
    ("serve.refused", "count", "lower"),
    ("core.engine.runs", "count", "lower"),
    ("core.engine.hit_ratio", "ratio", "higher"),
    ("core.engine.key_us", "us", "lower"),
    ("core.engine.rehydrate_us", "us", "lower"),
    ("core.engine.run_self_us", "us", "lower"),
    ("provenance.payload_records", "count", "lower"),
    ("provenance.record_ms", "ms", "lower"),
    ("provenance.merge_ms", "ms", "lower"),
    ("provenance.sidecar_appends", "count", "lower"),
    ("provenance.sidecar_bytes_per_trial", "B", "lower"),
    ("store.disk_put_us", "us", "lower"),
    ("store.disk_get_us", "us", "lower"),
    ("store.flight_ms", "ms", "lower"),
    ("store.memory_hit_ratio", "ratio", "higher"),
    ("store.files_per_trial", "count", "lower"),
    ("store.bytes_per_trial", "B", "lower"),
    ("store.fsyncs", "count", "lower"),
    ("explore.evaluate_ms", "ms", "lower"),
    ("explore.materialize_us", "us", "lower"),
    ("explore.wal_put_us", "us", "lower"),
    ("explore.wal_load_ms", "ms", "lower"),
    ("explore.store_hit_ratio", "ratio", "higher"),
    ("explore.wal_bytes_per_trial", "B", "lower"),
    ("isa.compiled.run_us", "us", "lower"),
    ("isa.compiled.lower_ms", "ms", "lower"),
    ("isa.compiled.fallbacks", "count", "lower"),
    ("arch.mdesc.describe_ms", "ms", "lower"),
    ("kernel.handlers.synth_ms", "ms", "lower"),
    ("core.microbench.measure_ms", "ms", "lower"),
    ("isa.executor.runs", "count", "lower"),
    ("isa.executor.busy_ms", "ms", "lower"),
    ("isa.executor.distinct_ratio", "ratio", "higher"),
    ("analysis.claims_calls", "count", "lower"),
    ("analysis.claims_ms", "ms", "lower"),
    ("analysis.tables_ms", "ms", "lower"),
    ("workloads.synapse_ms", "ms", "lower"),
    ("threads.switch_ms", "ms", "lower"),
    ("core.tracing.replay_ms", "ms", "lower"),
    ("scenarios.fit_ms", "ms", "lower"),
    ("scenarios.cost_model_ms", "ms", "lower"),
    ("scenarios.replication_ms", "ms", "lower"),
    ("scenarios.stream_events_per_s", "1/s", "higher"),
    ("scenarios.digest_ms", "ms", "lower"),
    ("loadgen.late_ms.p50", "ms", "lower"),
    ("loadgen.late_ms.max", "ms", "lower"),
    ("loadgen.late_ratio", "ratio", "lower"),
    ("host.ref_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: a request counts as late when it was sent this long after its due time.
LATE_THRESHOLD_MS = 2.0


class Spans:
    """Annotated spans with lookups by name."""

    def __init__(self, spans: List[Dict[str, Any]]) -> None:
        self.all = spans
        self.children = tracer.annotate(spans)
        self.by_name: Dict[str, List[Dict[str, Any]]] = {}
        for span in spans:
            self.by_name.setdefault(span["name"], []).append(span)

    @classmethod
    def load(cls, path: str) -> "Spans":
        return cls(tracer.load(path))

    def named(self, *names: str) -> List[Dict[str, Any]]:
        return [s for n in names for s in self.by_name.get(n, ())]

    def count(self, *names: str) -> int:
        return len(self.named(*names))

    def total(self, *names: str, key: str = "dur") -> float:
        spans = self.named(*names)
        if key == "self":
            return sum(s["self"] for s in spans)
        return sum(s["end"] - s["start"] for s in spans)

    def mean(self, *names: str) -> float:
        spans = self.named(*names)
        return self.total(*names) / len(spans) if spans else 0.0

    def roots(self) -> List[Dict[str, Any]]:
        return [s for s in self.all if s["parent"] is None]


def common_metrics(sp: Spans, ops: int) -> Dict[str, float]:
    """Metrics every workload's spans can give, normalised per operation."""
    # divided, not multiplied by 1/ops, so an exact count per operation
    # reads the same whatever the number of operations
    n = max(ops, 1)
    runs = sp.count("ExperimentEngine.run")
    misses = sp.count("ExperimentEngine._execute")
    key_s = 0.0
    for run in sp.named("ExperimentEngine.run"):
        for child in sp.children.get(run["id"], ()):
            if child["name"] in ("fingerprint_spec", "fingerprint_stream", "description_for"):
                key_s += child["end"] - child["start"]
    lru = sp.named("LRUCache.get")
    payloads = sp.named("lineage_payload")
    executor = sp.named("Executor.run")
    out = {
        "core.engine.runs": runs / n,
        "core.engine.hit_ratio": (runs - misses) / runs if runs else 0.0,
        "core.engine.key_us": key_s / runs * 1e6 if runs else 0.0,
        "core.engine.rehydrate_us": sp.mean("result_from_dict") * 1e6,
        "core.engine.run_self_us": (sp.total("ExperimentEngine.run", key="self")
                                    / runs * 1e6 if runs else 0.0),
        "provenance.payload_records": (sum(s["attrs"]["n"] for s in payloads)
                                       / len(payloads) if payloads else 0.0),
        "provenance.record_ms": sp.total("Recorder.record", "Recorder.record_chain",
                                         "Recorder.deliver_to_scopes", key="self") * 1e3 / n,
        "provenance.merge_ms": sp.total("merge_lineage_payload", key="self") * 1e3 / n,
        "provenance.sidecar_appends": sp.count("LineageStore.append",
                                               "LineageStore.append_many") / n,
        "store.disk_put_us": sp.mean("DiskTier.put") * 1e6,
        "store.disk_get_us": sp.mean("DiskTier.get") * 1e6,
        "store.flight_ms": sp.total("StoreStack.begin_flight") * 1e3 / n,
        "store.memory_hit_ratio": (sum(1 for s in lru if s["attrs"]["hit"]) / len(lru)
                                   if lru else 0.0),
        "store.fsyncs": sp.count("fsync") / n,
        "isa.compiled.run_us": sp.mean("run_compiled") * 1e6,
        "isa.compiled.lower_ms": sp.total("compile_program", key="self") * 1e3 / n,
        "isa.compiled.fallbacks": sp.count("ExperimentEngine._note_fallback") / n,
        "arch.mdesc.describe_ms": sp.total("description_for", key="self") * 1e3 / n,
        "kernel.handlers.synth_ms": sp.total("handler_program", key="self") * 1e3 / n,
        "core.microbench.measure_ms": sp.mean("measure_primitives") * 1e3,
        "isa.executor.runs": len(executor) / n,
        "isa.executor.busy_ms": sp.total("Executor.run") * 1e3 / n,
        "isa.executor.distinct_ratio": (len({s["attrs"]["key"] for s in executor})
                                        / len(executor) if executor else 0.0),
        "analysis.claims_calls": sp.count("all_claims") / n,
        "analysis.claims_ms": sp.total("all_claims") * 1e3 / n,
        "analysis.tables_ms": sp.total("render_all") * 1e3 / n,
        "workloads.synapse_ms": sp.total("run_synapse") * 1e3 / n,
        "threads.switch_ms": sp.total("UserThreadPackage.switch_to") * 1e3 / n,
        "core.tracing.replay_ms": sp.total("replay_trace_batched", "replay_trace") * 1e3 / n,
    }
    return out


def self_time_report(title: str, ops: Sequence[Tuple[Dict[str, Any], float, float]],
                     sp: Spans) -> str:
    """Self-time table of the median operation and of all operations.

    ``ops`` holds (root span, operation duration s, time outside the
    root s).  The text ends with the largest mismatch between an
    operation's rows and its duration.
    """
    if not ops:
        return f"{title}: no traced operations"
    worst = 0.0
    totals: Dict[str, float] = {}
    per_op = []
    for root, duration, outside in ops:
        rows = tracer.layer_rows(root, sp.children, outside)
        worst = max(worst, abs(sum(rows.values()) - duration))
        per_op.append((duration, rows))
        for layer, value in rows.items():
            totals[layer] = totals.get(layer, 0.0) + value
    per_op.sort(key=lambda item: item[0])
    mid_duration, mid_rows = per_op[len(per_op) // 2]
    text = "\n".join([
        tracer.render_table(mid_rows, mid_duration,
                            f"{title}: median traced operation"),
        tracer.render_table(totals, sum(d for d, _ in per_op),
                            f"{title}: all {len(per_op)} traced operations"),
        f"  rows minus duration, worst operation: {worst * 1e6:.3f} us",
    ])
    return text


def _chrome(label: str, sets: Sequence[Tuple[str, List[Dict[str, Any]]]]) -> str:
    path = os.path.join(common.OUT_DIR, f"trace-{label}.json")
    tracer.chrome_trace(sets, path)
    return path


def _finish_text(res: Any, metrics: Dict[str, float], text: str, path: str) -> str:
    res.info["layer_metrics"] = metrics
    return text + f"\nchrome trace: {os.path.relpath(path, common.ROOT)}"


# ----------------------------------------------------------------------
# per workload
# ----------------------------------------------------------------------

def serve_layers(spans_path: str, light: Any, untraced_p50: Optional[float],
                 res: Any) -> str:
    sp = Spans.load(spans_path)
    latency = dict(light.ids)
    rids = set(latency)
    by_rid: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for span in sp.all:
        if span["op"] in rids:
            by_rid.setdefault(span["op"], {})[span["name"]] = span
    map_start: Dict[str, float] = {}
    for span in sp.named("SweepRunner.map"):
        for rid in (span["attrs"] or {}).get("rids", ()):
            map_start[rid] = span["start"]
    waits, returns, ops = [], [], []
    for rid, named in by_rid.items():
        batched = named.get("MicroBatcher.submit")
        execute = named.get("execute_one")
        submit = named.get("ServeApp.submit")
        if batched and rid in map_start:
            waits.append(map_start[rid] - batched["start"])
        if execute and submit:
            returns.append(submit["end"] - execute["end"])
        root = named.get("HttpServer._respond")
        if root is not None:
            duration = latency[rid] / 1e3
            outside = max(0.0, duration - (root["end"] - root["start"]))
            ops.append((root, root["end"] - root["start"] + outside, outside))
    light_rid = [s for s in sp.named("execute_one") if s["op"] in rids]
    measure_runs, measure_records = [], []
    for span in light_rid:
        if (span["attrs"] or {}).get("endpoint") == "measure":
            tree = tracer.subtree(span, sp.children)
            measure_runs.append(sum(1 for s in tree if s["name"] == "ExperimentEngine.run"))
            measure_records += [s["attrs"]["n"] for s in tree
                                if s["name"] == "lineage_payload"]
    maps = [s for s in sp.named("SweepRunner.map") if set(s["attrs"]["rids"]) & rids]
    submits = [s for s in sp.named("ServeApp.submit") if s["op"] in rids]
    light_spans = Spans([dict(s) for s in sp.all if s["op"] in rids])
    metrics = common_metrics(light_spans, len(submits))
    late = light.late_ms
    lat_by = light.by_endpoint
    metrics.update({
        "core.engine.runs": stats.median(measure_runs) if measure_runs else 0.0,
        "provenance.payload_records": (stats.median(measure_records)
                                       if measure_records else 0.0),
        "serve.batch_wait_ms": stats.median(waits) * 1e3 if waits else 0.0,
        "serve.execute_ms": stats.median([s["end"] - s["start"] for s in light_rid]) * 1e3
        if light_rid else 0.0,
        "serve.return_ms": stats.median(returns) * 1e3 if returns else 0.0,
        "serve.http_self_ms": stats.median(
            [s["self"] for s in sp.named("HttpServer._respond") if s["op"] in rids]) * 1e3
        if submits else 0.0,
        "serve.p50_ms.measure": stats.median(lat_by["measure"]) if lat_by.get("measure") else 0.0,
        "serve.p50_ms.table": stats.median(lat_by["table"]) if lat_by.get("table") else 0.0,
        "serve.p50_ms.arch_describe": stats.median(lat_by["arch_describe"])
        if lat_by.get("arch_describe") else 0.0,
        "serve.batch_size": (sum(s["attrs"]["items"] for s in maps) / len(maps)) if maps else 0.0,
        "serve.coalesced_ratio": len(light_rid) / len(submits) if submits else 0.0,
        "serve.refused": float(light.refused),
        "loadgen.late_ms.p50": stats.median(late) if late else 0.0,
        "loadgen.late_ms.max": max(late) if late else 0.0,
        "loadgen.late_ratio": (sum(1 for v in late if v > LATE_THRESHOLD_MS) / len(late)
                               if late else 0.0),
        "trace.overhead": (stats.median(light.latencies_ms) / untraced_p50
                           if untraced_p50 and light.latencies_ms else 0.0),
    })
    text = self_time_report("serve-warm request (client latency from due time)", ops, sp)
    path = _chrome("serve-warm", [("repro serve run", sp.all)])
    return _finish_text(res, metrics, text, path)


def explore_layers(directory: str, traced: List[Dict[str, Any]],
                   plain_cold: Dict[str, Any], res: Any) -> str:
    cold_child = next(c for c in traced if c["store_hits"] == 0)
    resume_child = next(c for c in traced if c["store_hits"] > 0)
    cold = Spans.load(os.path.join(directory, "cold-spans.json"))
    resume = Spans.load(os.path.join(directory, "resume-spans.json"))
    trials = cold_child["trials"]
    files = cold_child["files"]
    metrics = common_metrics(cold, 1)
    metrics.update({
        "provenance.sidecar_bytes_per_trial": files["sidecar_bytes"] / trials,
        "store.files_per_trial": files["cache"]["files"] / trials,
        "store.bytes_per_trial": files["cache"]["bytes"] / trials,
        "explore.evaluate_ms": cold.mean("_evaluate_point") * 1e3,
        "explore.materialize_us": cold.mean("DesignSpace.materialize") * 1e6,
        "explore.wal_put_us": cold.mean("ResultStore.put") * 1e6,
        "explore.wal_load_ms": resume.mean("ResultStore.__init__") * 1e3,
        "explore.store_hit_ratio": resume_child["store_hits"] / resume_child["trials"],
        "explore.wal_bytes_per_trial": files["wal_bytes"] / trials,
        "trace.overhead": cold_child["op_s"] / plain_cold["op_s"],
    })
    texts = []
    for label, sp in (("explore-cold cold sweep", cold), ("explore-cold resumed sweep", resume)):
        roots = [r for r in sp.roots() if r["name"] == "operation"]
        text = self_time_report(
            label, [(r, r["end"] - r["start"], 0.0) for r in roots], sp)
        texts.append(text)
    path = _chrome("explore-cold", [("cold sweep", cold.all), ("resumed sweep", resume.all)])
    return _finish_text(res, metrics, "\n".join(texts), path)


def scenario_layers(spans_path: str, child: Dict[str, Any],
                    untraced: List[Dict[str, float]], traced: List[Dict[str, float]],
                    res: Any) -> str:
    sp = Spans.load(spans_path)
    roots = [r for r in sp.roots() if r["name"] == "operation"]
    # per-operation counts come from the operations' trees only: the
    # model fit before the first operation runs executors too
    inside = Spans([dict(s) for r in roots for s in tracer.subtree(r, sp.children)])
    metrics = common_metrics(inside, len(roots))
    reps = sp.named("run_replication")
    stream_s = 0.0
    for rep in reps:
        inner = sum(c["end"] - c["start"] for c in sp.children.get(rep["id"], ())
                    if c["name"] in ("CostModel.__init__", "aggregate_digest"))
        stream_s += (rep["end"] - rep["start"]) - inner
    events = sum(r["attrs"]["events"] for r in reps)
    metrics.update({
        "scenarios.fit_ms": sp.total("fit_table7_pair") * 1e3,
        "scenarios.cost_model_ms": sp.mean("CostModel.__init__") * 1e3,
        "scenarios.replication_ms": sp.mean("run_replication") * 1e3,
        "scenarios.stream_events_per_s": events / stream_s if stream_s else 0.0,
        "scenarios.digest_ms": sp.mean("aggregate_digest") * 1e3,
        "trace.overhead": (stats.median([c["events_per_s"] for c in untraced])
                           / stats.median([c["events_per_s"] for c in traced])
                           if untraced and traced else 0.0),
    })
    text = self_time_report("scenario-sweep machine operation",
                               [(r, r["end"] - r["start"], 0.0) for r in roots], sp)
    path = _chrome("scenario-sweep", [("scenario sweep", sp.all)])
    return _finish_text(res, metrics, text, path)


def report_layers(spans_path: str, child: Dict[str, Any], report_s: float,
                  res: Any) -> str:
    sp = Spans.load(spans_path)
    roots = [r for r in sp.roots() if r["name"] == "operation"]
    metrics = common_metrics(sp, len(roots))
    metrics["trace.overhead"] = child["corrected_s"] / report_s
    text = self_time_report("report-cold full_report()",
                               [(r, r["end"] - r["start"], 0.0) for r in roots], sp)
    path = _chrome("report-cold", [("full_report", sp.all)])
    return _finish_text(res, metrics, text, path)


def finish(workload: str, res: Any) -> Dict[str, Dict[str, Any]]:
    """Every catalogue metric, 0 where the workload has no such layer."""
    values = dict(res.info.pop("layer_metrics", {}))
    values["host.ref_ms"] = res.host.get("ref_ms", 0.0)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in CATALOGUE}
