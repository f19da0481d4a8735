#!/usr/bin/env python
"""Emit a machine-readable performance snapshot of the experiment engine.

Times full-table regeneration cold (fresh engine) and warm (memoized),
the scalar/batched/cached trace replay ladder, the compiled-executor
cold path over the mechanisms design grid, the unified store's tier
latencies / digest-lock waits / WAL-compaction cost, the serving
layer's coalesce/shed/drain contracts with closed-loop latency, and
the cluster's 1-vs-2-worker cold-sweep scaling with its
frontier-parity check.  Writes two
snapshots: ``BENCH_engine.json`` (engine + compiled + explore + obs +
provenance + store + cluster) and ``BENCH_serve.json`` (the
serving scenarios, same shape as ``repro serve bench --out``)::

    PYTHONPATH=src python scripts/perf_report.py            # full snapshot
    PYTHONPATH=src python scripts/perf_report.py --quick    # CI smoke

The JSON is a versioned schema so future PRs can diff trajectories:
``timings_ms`` holds best-of-N wall times, ``speedups`` the headline
ratios (the repo pins ``warm_tables >= 3`` and a 10x floor on
``compiled_cold_grid``), ``checks`` the correctness cross-checks the
numbers are only valid under.  Both output files are diffed against
their previously committed contents, so a PR's perf delta is printed
by just rerunning the script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

SNAPSHOT_SCHEMA_VERSION = 1


def best_of(repeats: int, fn) -> "tuple[float, object]":
    """Best wall time in ms over ``repeats`` calls, plus the last value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best, value


def load_snapshot(path: str) -> "dict | None":
    """Read a previous snapshot; ``None`` for missing/corrupt/foreign files.

    A first run (no file), a truncated write, or a hand-edited JSON must
    not break the report — the delta section is simply skipped.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(snapshot, dict):
        return None
    return snapshot


def delta_summary(current: "dict", previous: "dict | None") -> "list[str]":
    """Human-readable timing deltas vs a previous snapshot.

    Tolerates a partial previous snapshot: sections or keys that are
    absent (or not numbers) on either side are skipped rather than
    raising, so a snapshot written by an older schema still diffs on
    whatever it does share.
    """
    if not previous:
        return []
    lines: "list[str]" = []
    for section in ("timings_ms", "speedups"):
        now = current.get(section)
        then = previous.get(section)
        if not isinstance(now, dict) or not isinstance(then, dict):
            continue
        for key in sorted(now):
            a, b = then.get(key), now[key]
            if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                continue
            if a == 0:
                continue
            change = (b - a) / a * 100.0
            lines.append(f"{section}.{key}: {a} -> {b} ({change:+.1f}%)")
    return lines


def serve_delta_summary(current: "dict", previous: "dict | None") -> "list[str]":
    """Timing/ratio deltas between two ``BENCH_serve.json`` snapshots.

    The serve snapshot nests its numbers under scenarios, so the
    comparable scalars are picked out explicitly; missing keys on
    either side are skipped (older schemas still diff on what they
    share).
    """
    if not previous:
        return []

    def pick(snapshot: "dict", path: "tuple[str, ...]"):
        node = snapshot
        for key in path:
            if not isinstance(node, dict) or key not in node:
                return None
            node = node[key]
        return node if isinstance(node, (int, float)) else None

    tracked = {
        "coalesce_rate": ("scenarios", "coalesce", "coalesce_rate"),
        "shed_rate": ("scenarios", "load", "shed_rate"),
        "closed_throughput_rps": ("scenarios", "load", "closed", "throughput_rps"),
        "closed_p50_ms": ("scenarios", "load", "closed", "latency_ms", "p50"),
        "closed_p99_ms": ("scenarios", "load", "closed", "latency_ms", "p99"),
        "open_p50_ms": ("scenarios", "load", "open", "latency_ms", "p50"),
        "open_p99_ms": ("scenarios", "load", "open", "latency_ms", "p99"),
    }
    lines: "list[str]" = []
    for label, path in tracked.items():
        a, b = pick(previous, path), pick(current, path)
        if a is None or b is None or a == 0:
            continue
        lines.append(f"{label}: {a} -> {b} ({(b - a) / a * 100.0:+.1f}%)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument("--serve-output", default="BENCH_serve.json")
    parser.add_argument("--quick", action="store_true",
                        help="single repetition per measurement (CI smoke)")
    args = parser.parse_args(argv)
    repeats = 1 if args.quick else 3

    from repro import obs
    from repro.analysis import runner
    from repro.arch.registry import get_arch
    from repro.core.engine import ExperimentEngine
    from repro.core.tracing import TraceConfig, replay_trace, replay_trace_batched
    from repro.obs.overhead import measure_overhead

    timings: "dict[str, float]" = {}
    checks: "dict[str, bool]" = {}

    # --- full-table regeneration: cold / warm -------------------------
    cold_ms, cold_tables = best_of(
        repeats, lambda: runner.render_all(engine=ExperimentEngine())
    )
    timings["tables_cold"] = cold_ms

    warm_engine = ExperimentEngine()
    runner.render_all(engine=warm_engine)
    warm_ms, warm_tables = best_of(
        repeats, lambda: runner.render_all(engine=warm_engine)
    )
    timings["tables_warm"] = warm_ms
    checks["warm_equals_cold"] = warm_tables == cold_tables

    # --- trace replay ladder: scalar / batched / cached ----------------
    tlb = get_arch("cvax").tlb
    config = TraceConfig()
    scalar_ms, scalar_stats = best_of(repeats, lambda: replay_trace(tlb, config))
    timings["replay_scalar"] = scalar_ms
    batched_ms, batched_stats = best_of(
        repeats, lambda: replay_trace_batched(tlb, config)
    )
    timings["replay_batched"] = batched_ms
    checks["batched_equals_scalar"] = batched_stats == scalar_stats

    replay_engine = ExperimentEngine()
    replay_engine.replay(tlb, config)
    cached_ms, cached_stats = best_of(
        repeats, lambda: replay_engine.replay(tlb, config)
    )
    timings["replay_cached"] = cached_ms
    checks["cached_equals_scalar"] = cached_stats == scalar_stats

    # --- design-space exploration: cold search + engine-cache resume ---
    from repro.core.engine import default_engine, set_default_engine
    from repro.explore import ExploreRunner, ResultStore, tiny_space

    previous_engine = default_engine()
    set_default_engine(ExperimentEngine())
    try:
        explore_cold_ms, explore_cold = best_of(
            1, lambda: ExploreRunner(tiny_space(), store=ResultStore()).run(seed=0)
        )
        explore_resumed_ms, explore_resumed = best_of(
            1, lambda: ExploreRunner(tiny_space(), store=ResultStore()).run(seed=0)
        )
    finally:
        set_default_engine(previous_engine)
    timings["explore_cold"] = explore_cold_ms
    timings["explore_resumed"] = explore_resumed_ms
    checks["explore_frontier_nonempty"] = explore_cold.stats.frontier_size > 0
    checks["explore_resumed_cache_reuse"] = (
        explore_resumed.stats.engine_hit_rate > 0.5)
    checks["explore_resumed_same_frontier"] = (
        [t.spec_fingerprint for t in explore_resumed.frontier()]
        == [t.spec_fingerprint for t in explore_cold.frontier()])

    # --- compiled executor: cold explore-grid fast path ----------------
    # The gated workload: every executor job a cold sweep of the
    # 96-point mechanisms grid generates (measure_primitives' 12 jobs
    # per point), run once through the interpreter and once through the
    # compiled batch path.  Lowering happens during handler synthesis
    # (once per distinct stream, shared across points) exactly as a
    # production cold `explore run` pays it; its marginal cost is
    # measured separately below for transparency.
    from repro.core.engine import result_to_dict, set_compiled_enabled
    from repro.core.microbench import measurement_jobs
    from repro.explore.space import mechanisms_space
    from repro.isa.compiled import _ARTIFACT_ATTR, compile_program, run_grid
    from repro.isa.executor import run_on

    grid_space = mechanisms_space()
    grid_jobs = [
        (spec, program, drain)
        for _, point in grid_space.points()
        for spec in (grid_space.materialize(point),)
        for program, drain in measurement_jobs(spec)
    ]
    interp_ms, interp_results = best_of(
        1, lambda: [run_on(spec, program, drain_write_buffer=drain)
                    for spec, program, drain in grid_jobs])
    timings["compiled_grid_interpreted"] = interp_ms
    first_ms, grid_results = best_of(1, lambda: run_grid(grid_jobs))
    timings["compiled_grid_first"] = first_ms
    steady_ms, steady_results = best_of(repeats, lambda: run_grid(grid_jobs))
    timings["compiled_grid_steady"] = steady_ms
    checks["compiled_grid_bit_identical"] = (
        len(interp_results) == len(grid_results)
        and all(
            result_to_dict(a) == result_to_dict(b) == result_to_dict(c)
            for a, b, c in zip(interp_results, grid_results, steady_results)))

    # Marginal lowering cost: strip and re-lower each distinct stream
    # once (what synthesis pays per structure on a cold run).
    representatives = {}
    for _, program, _ in grid_jobs:
        representatives[id(compile_program(program))] = program
    def relower():
        for program in representatives.values():
            if _ARTIFACT_ATTR in program.__dict__:
                object.__delattr__(program, _ARTIFACT_ATTR)
            compile_program(program)
        return len(representatives)
    lowering_ms, lowered_streams = best_of(1, relower)
    timings["compiled_grid_lowering"] = lowering_ms

    # End-to-end cold explore run, both modes, fresh engines each.
    from repro.explore import ExploreRunner, ResultStore

    def cold_explore():
        set_default_engine(ExperimentEngine())
        try:
            return ExploreRunner(mechanisms_space(), store=ResultStore()).run(seed=0)
        finally:
            set_default_engine(previous_engine)

    from repro.core.engine import compiled_enabled

    was_compiled = compiled_enabled()
    set_compiled_enabled(False)
    try:
        explore_interp_ms, explore_interp = best_of(1, cold_explore)
    finally:
        set_compiled_enabled(was_compiled)
    explore_compiled_ms, explore_compiled = best_of(1, cold_explore)
    timings["explore_grid_interpreted"] = explore_interp_ms
    timings["explore_grid_compiled"] = explore_compiled_ms
    checks["compiled_explore_identical"] = (
        [(t.spec_fingerprint, t.objectives) for t in explore_interp.trials]
        == [(t.spec_fingerprint, t.objectives) for t in explore_compiled.trials])

    # --- observability: disabled-path overhead + a metrics snapshot ----
    probe = measure_overhead(repeats=30 if args.quick else 150,
                             rounds=2 if args.quick else 5)
    timings["obs_executor_baseline"] = probe["baseline_ms"]
    timings["obs_executor_disabled"] = probe["instrumented_ms"]
    checks["obs_loops_identical"] = probe["identical"]

    # --- provenance: lineage-recording overhead on cold engine runs ----
    from repro.provenance.overhead import measure_lineage_overhead

    lineage_probe = measure_lineage_overhead(
        repeats=2 if args.quick else 3, rounds=2 if args.quick else 5)
    timings["provenance_cold_disabled"] = lineage_probe["disabled_ms"]
    timings["provenance_cold_enabled"] = lineage_probe["enabled_ms"]
    checks["provenance_results_identical"] = lineage_probe["identical"]

    # --- unified store: tier latencies, lock waits, compaction ---------
    from repro.store import measure_store

    store_probe = measure_store(
        lock_samples=10 if args.quick else 40,
        wal_records=50 if args.quick else 200)
    timings["store_cold_populate"] = store_probe["cold_populate_ms"]
    timings["store_disk_rehydrate"] = store_probe["disk_rehydrate_ms"]
    timings["store_memory_steady"] = store_probe["memory_steady_ms"]
    timings["store_compact"] = store_probe["compact_ms"]
    timings["store_compact_reload"] = store_probe["compact_reload_ms"]
    checks["store_tiers_identical"] = store_probe["identical"]

    # --- serving layer: coalesce/shed/drain contracts + load latency ---
    import asyncio

    from repro.serve.loadgen import run_bench

    serve_bench = asyncio.run(run_bench(quick=args.quick))
    serve_load = serve_bench["scenarios"]["load"]
    timings["serve_closed_p50_ms"] = serve_load["closed"]["latency_ms"]["p50"]
    timings["serve_closed_p99_ms"] = serve_load["closed"]["latency_ms"]["p99"]
    for name, ok in serve_bench["checks"].items():
        checks[f"serve_{name}"] = ok

    # --- cluster: 1-vs-2-worker cold-sweep scaling + frontier parity ---
    # Real worker processes over HTTP against a fresh cache per run;
    # each trial carries the bench's fixed I/O-latency pad so the ratio
    # measures scheduler overlap, not the host's core count (see
    # repro.cluster.bench_scaling).  Quick mode sweeps a 96-point
    # prefix of the same grid.
    import tempfile

    from repro.cluster import bench_scaling
    from repro.explore.space import scaling_space

    cluster_space = scaling_space()
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as cluster_root:
        cluster_report = bench_scaling(
            cluster_space, out_root=cluster_root,
            worker_counts=(1, 2), lease_size=24, heartbeat_every=2,
            budget=96 if args.quick else None)
    cluster_one = cluster_report["runs"]["1"]
    cluster_two = cluster_report["runs"]["2"]
    timings["cluster_sweep_1worker"] = cluster_one["sweep_seconds"] * 1e3
    timings["cluster_sweep_2workers"] = cluster_two["sweep_seconds"] * 1e3
    checks["cluster_frontier_parity"] = cluster_report["parity"]

    # --- scenarios: streaming throughput + replication reuse -----------
    # Cold path: generate + cost + bounded-memory sketches for one
    # seeded replication; reuse path: the same scenario answered from
    # the content-addressed store.  Bit-identity of the aggregate
    # digest across same-seed runs is the correctness condition the
    # throughput number is only valid under.
    from repro.os_models.mach import OSStructure
    from repro.scenarios import ScenarioRunner, fit_table7, run_replication

    scenario_events = 20_000 if args.quick else 100_000
    scenario_seeds = list(range(3))
    scenario_model = fit_table7("andrew-local", OSStructure.KERNELIZED)
    scenario_spec = get_arch("r3000")
    scenario_cold_ms, scenario_row = best_of(
        repeats, lambda: run_replication(
            scenario_model, scenario_spec, OSStructure.KERNELIZED, 0,
            scenario_events))
    timings["scenario_replication_cold"] = scenario_cold_ms
    scenario_rerun = run_replication(
        scenario_model, scenario_spec, OSStructure.KERNELIZED, 0,
        scenario_events)
    checks["scenario_bit_identical"] = (
        scenario_rerun["aggregate_digest"] == scenario_row["aggregate_digest"])
    checks["scenario_matches_closed_form"] = (
        abs(scenario_row["aggregate"]["os_share"]
            - scenario_row["expected_os_share"])
        <= 0.05 * scenario_row["expected_os_share"])

    with tempfile.TemporaryDirectory(prefix="repro-scen-") as scenario_root:
        scenario_store = os.path.join(scenario_root, "scenario.jsonl")
        ScenarioRunner(store=scenario_store).run(
            scenario_model, scenario_spec, OSStructure.KERNELIZED,
            scenario_seeds, scenario_events)
        scenario_reuse_ms, scenario_reused = best_of(
            repeats, lambda: ScenarioRunner(store=scenario_store).run(
                scenario_model, scenario_spec, OSStructure.KERNELIZED,
                scenario_seeds, scenario_events))
    timings["scenario_replications_reused"] = scenario_reuse_ms
    checks["scenario_reuse_complete"] = (
        scenario_reused.stats.store_hits == len(scenario_seeds)
        and scenario_reused.stats.fresh == 0)

    with obs.capture() as capture:
        runner.render_all(engine=ExperimentEngine())
    window = capture.metrics()
    metric_totals = {}
    for name, entry in sorted(window.get("metrics", {}).items()):
        if entry["kind"] == "histogram":
            metric_totals[name] = sum(c["count"] for c in entry["cells"].values())
        else:
            metric_totals[name] = round(sum(entry["cells"].values()), 3)
    checks["obs_spans_emitted"] = len(capture.spans) > 0

    snapshot = {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "generated_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "timings_ms": {k: round(v, 3) for k, v in timings.items()},
        "speedups": {
            "warm_tables": round(timings["tables_cold"] / timings["tables_warm"], 2),
            "batched_replay": round(
                timings["replay_scalar"] / timings["replay_batched"], 2
            ),
            "cached_replay": round(
                timings["replay_scalar"] / timings["replay_cached"], 2
            ),
            "compiled_cold_grid": round(
                timings["compiled_grid_interpreted"]
                / timings["compiled_grid_first"], 2
            ),
            "compiled_steady_grid": round(
                timings["compiled_grid_interpreted"]
                / timings["compiled_grid_steady"], 2
            ),
            "compiled_explore_end_to_end": round(
                timings["explore_grid_interpreted"]
                / timings["explore_grid_compiled"], 2
            ),
            "cluster_2worker_scaling": round(
                cluster_report.get("speedup", 0.0), 2),
            "scenario_store_reuse": round(
                len(scenario_seeds) * timings["scenario_replication_cold"]
                / max(timings["scenario_replications_reused"], 1e-9), 2),
        },
        "checks": checks,
        "compiled": {
            "space": grid_space.name,
            "points": len({id(spec) for spec, _, _ in grid_jobs}),
            "jobs": len(grid_jobs),
            "instructions": sum(len(p) for _, p, _ in grid_jobs),
            "lowered_streams": lowered_streams,
            "lowering_ms": round(lowering_ms, 3),
        },
        "explore": {
            "space": explore_cold.space.name,
            "trials": explore_cold.stats.trials,
            "frontier_size": explore_cold.stats.frontier_size,
            "resumed_engine_hit_rate": round(
                explore_resumed.stats.engine_hit_rate, 4),
        },
        "obs": {
            "disabled_overhead_ratio": round(probe["ratio"], 4),
            "probe_program": probe["program"],
            "spans_per_cold_render_all": len(capture.spans),
            "metric_totals": metric_totals,
        },
        "provenance": {
            "lineage_overhead_ratio": round(lineage_probe["ratio"], 4),
            "workload": lineage_probe["workload"],
            "tables": lineage_probe["tables"],
        },
        "store": {
            "memory_hit_rate": store_probe["memory_hit_rate"],
            "disk_hit_rate": store_probe["disk_hit_rate"],
            "lock_uncontended_p50_ms": store_probe["lock_uncontended_p50_ms"],
            "lock_wait_p50_ms": store_probe["lock_wait_p50_ms"],
            "lock_wait_p99_ms": store_probe["lock_wait_p99_ms"],
            "lock_hold_s": store_probe["lock_hold_s"],
            "lock_samples": store_probe["lock_samples"],
            "wal_records": store_probe["wal_records"],
            "jobs": store_probe["jobs"],
        },
        "serve": {
            "coalesce_rate_identical": serve_bench["scenarios"]["coalesce"][
                "coalesce_rate"],
            "shed_rate_under_load": serve_load["shed_rate"],
            "closed_loop_throughput_rps": serve_load["closed"][
                "throughput_rps"],
            "closed_loop_latency_ms": serve_load["closed"]["latency_ms"],
            "open_loop_latency_ms": serve_load["open"]["latency_ms"],
        },
        "scenarios": {
            "workload": scenario_model.name,
            "structure": scenario_model.structure,
            "events_per_replication": scenario_events,
            "events_per_second_cold": round(
                scenario_events / (timings["scenario_replication_cold"] / 1e3),
                1),
            "replications_reused": len(scenario_seeds),
            "os_share": round(scenario_row["aggregate"]["os_share"], 4),
            "expected_os_share": round(scenario_row["expected_os_share"], 4),
        },
        "cluster": {
            "space": cluster_space.name,
            "points_swept": cluster_one["trials"],
            "workers_compared": [1, 2],
            "trial_delay_ms": cluster_report["trial_delay_ms"],
            "cpu_count": cluster_report["cpu_count"],
            "frontier_size": cluster_two["frontier_size"],
            "frontier_digest": cluster_two["frontier_digest"],
            "counters_2workers": cluster_two["counters"],
        },
    }

    previous = load_snapshot(args.output)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")

    previous_serve = load_snapshot(args.serve_output)
    with open(args.serve_output, "w", encoding="utf-8") as fh:
        json.dump(serve_bench, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(json.dumps(snapshot, indent=2, sort_keys=True))
    deltas = delta_summary(snapshot, previous)
    if deltas:
        print("\ndeltas vs previous snapshot:")
        for line in deltas:
            print(f"  {line}")
    serve_deltas = serve_delta_summary(serve_bench, previous_serve)
    if serve_deltas:
        print(f"\nserve deltas vs previous {args.serve_output}:")
        for line in serve_deltas:
            print(f"  {line}")
    ok = all(checks.values())
    if not ok:
        print("FAIL: correctness cross-checks did not hold", file=sys.stderr)
        return 1
    if snapshot["speedups"]["compiled_cold_grid"] < 10.0:
        # Advisory here; the hard >=10x gate lives in the CI engine-bench
        # job against a freshly generated snapshot.
        print(
            "WARN: compiled cold-grid speedup at "
            f"{snapshot['speedups']['compiled_cold_grid']}x (target >= 10x)",
            file=sys.stderr,
        )
    if snapshot["speedups"]["warm_tables"] < 3.0:
        print(
            "WARN: warm-cache table regeneration below the 3x trajectory floor",
            file=sys.stderr,
        )
    if snapshot["obs"]["disabled_overhead_ratio"] >= 1.03:
        # Advisory here (timing noise on shared CI runners); the hard
        # gate lives in benchmarks/bench_obs.py with retries.
        print(
            "WARN: disabled-telemetry executor overhead at "
            f"{snapshot['obs']['disabled_overhead_ratio']:.4f} (target < 1.03)",
            file=sys.stderr,
        )
    if snapshot["speedups"]["cluster_2worker_scaling"] < 1.6:
        # Advisory here (a single-core host caps the overlap the pad can
        # buy); the hard >=1.6x gate lives in the CI cluster job on a
        # multi-core runner.
        print(
            "WARN: 2-worker cluster scaling at "
            f"{snapshot['speedups']['cluster_2worker_scaling']}x "
            "(target >= 1.6x)",
            file=sys.stderr,
        )
    if snapshot["provenance"]["lineage_overhead_ratio"] >= 1.02:
        # Advisory for the same reason; the hard gate with retries is
        # bench_obs_lineage_overhead.
        print(
            "WARN: lineage-recording overhead on cold runs at "
            f"{snapshot['provenance']['lineage_overhead_ratio']:.4f} "
            "(target < 1.02)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
