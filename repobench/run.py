"""The repository benchmark: one workload, one seed, one result line.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads drive the unmodified
program from outside (public entry points in fresh processes, or the
stock ``repro serve run`` process), check every output, and print
human-readable lines followed by one JSON object on the last line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics from a run with span wrappers installed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import stats  # noqa: E402

#: scenario-sweep set-ups per run (``setup_s`` is their trimmed mean).
SETUPS = 5
#: operations every fresh-process workload runs even when they overrun
#: the time budget, so the trimmed mean has values to trim.
MIN_OPS = 3

#: size cap of the tmpfs explore-cold's sweeps run on; one sweep's
#: engine cache and trial store take about 20 MB.
EXPLORE_TMPFS_MB = 256

#: server start-ups per serve-warm run; each includes the warm-up pass.
SERVE_SETUPS = 5
#: alternating (open-loop, closed-loop) slot pairs in one serve-warm run.
SERVE_ROUNDS = 20


class Result:
    """What a workload run produces."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.info: Dict[str, Any] = {}
        self.host: Dict[str, Any] = {}
        self.ref_ms: List[float] = []

    def op(self, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def ref(self) -> None:
        self.ref_ms.append(common.reference_kernel())


def _fresh_dir(name: str) -> str:
    path = os.path.join(common.OUT_DIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _setup_s(children: List[Dict[str, Any]]) -> float:
    """Trimmed mean of the children's set-up times at the nominal host
    speed (see ``child.SetupClock``)."""
    return stats.trimmed_mean([
        stats.corrected(c["ready_t"] - c["launch_t"] - c["setup_skip_s"],
                        c["setup_ref_ms"], common.NOMINAL_REF_MS)
        for c in children])


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------

def serve_warm(seed: int, seconds: float, res: Result, trace: bool) -> None:
    """Open-loop slots at a light fixed rate for latency, closed-loop slots
    over the same connections for throughput, alternated so both sample
    the host across the whole run; each slot is put at nominal host
    speed by the reference runs beside it."""
    import serveload

    golden = serveload.load_golden()
    rng = random.Random(f"serve-warm:{seed}")
    setups: List[float] = []
    spans_out = os.path.join(_fresh_dir("serve"), "server-spans.json")
    untraced_p50: Optional[float] = None
    if trace:
        # the overhead baseline: the light load on an untraced server
        base, _, problems = serveload.start_warm_server(golden)
        res.op(problems)
        try:
            baseline, _ = asyncio.run(serveload.measure(
                base.port, rng, golden, rounds=1, slot_s=seconds / 2,
                closed=False, id_prefix="base"))
        finally:
            base.stop()
        _count_phase(res, baseline[0].phase)
        if baseline[0].phase.latencies_ms:
            untraced_p50 = stats.median(baseline[0].phase.latencies_ms)
    server = None
    try:
        for i in range(SERVE_SETUPS):
            last = i == SERVE_SETUPS - 1
            # references on either side put the set-up at nominal host speed;
            # the server shares this process's CPU (common.pin_to_one_cpu)
            ref_before = common.reference_kernel()
            server, setup, problems = serveload.start_warm_server(
                golden, traced=trace and last, spans_out=spans_out)
            ref_after = common.reference_kernel()
            # each warm-up pass is one operation: it fails if any reply does
            res.op(problems)
            res.ref_ms += [ref_before, ref_after]
            setups.append(stats.corrected(setup, (ref_before + ref_after) / 2.0,
                                          common.NOMINAL_REF_MS))
            if not last:
                server.stop()
                server = None
        rounds = 1 if trace else SERVE_ROUNDS
        light_slots, closed_slots = asyncio.run(serveload.measure(
            server.port, rng, golden, rounds=rounds, slot_s=seconds / (2 * rounds),
            closed=not trace, id_prefix=f"r{seed}"))
        rss = server.peak_rss_mb()
        code = server.stop()
        server = None
        if code != 0:
            res.op([f"server exited with {code} after SIGTERM"])
    finally:
        if server is not None:
            server.stop()
    light = serveload.Phase()
    for slot in light_slots + closed_slots:
        res.ref_ms.append(slot.ref_ms)
        _count_phase(res, slot.phase)
    for slot in light_slots:
        light.merge(slot.phase)
    res.info["light"] = _latency_info(light)
    res.metric("setup_s", stats.trimmed_mean(setups), "s")
    res.metric("peak_rss_mb", rss or 0.0, "MB")
    if trace:
        if light.latencies_ms:
            res.metric("latency_ms", stats.median(light.latencies_ms), "ms")
        import layers

        res.info["layers"] = layers.serve_layers(spans_out, light, untraced_p50, res)
        return
    corrected_ms = [stats.corrected(lat, slot.ref_ms, common.NOMINAL_REF_MS)
                    for slot in light_slots for lat in slot.phase.latencies_ms]
    replies = sum(len(slot.phase.latencies_ms) for slot in closed_slots)
    corrected_s = sum(stats.corrected(slot.phase.elapsed_s, slot.ref_ms, common.NOMINAL_REF_MS)
                      for slot in closed_slots)
    if corrected_ms:
        res.metric("latency_ms", stats.median(corrected_ms), "ms")
    if corrected_s:
        res.metric("throughput_per_s", replies / corrected_s, "1/s")
    lat = light.latencies_ms
    raw_s = sum(slot.phase.elapsed_s for slot in closed_slots)
    res.info["named"] = {
        "latency_p50_ms": stats.median(corrected_ms) if corrected_ms else None,
        "latency_p90_ms": stats.reportable_percentile(corrected_ms, 90) if corrected_ms else None,
        "raw_latency_p50_ms": stats.median(lat) if lat else None,
        "closed_loop_rps": replies / corrected_s if corrected_s else None,
        "raw_closed_loop_rps": replies / raw_s if raw_s else None,
    }


def _count_phase(res: Result, phase: Any) -> None:
    """Fold a phase's requests into the run's attempted/failed counts."""
    res.attempted += phase.attempted
    res.failed += phase.failed
    res.problems.extend(phase.errors[:5])


def _latency_info(phase: Any) -> Dict[str, Any]:
    lat = phase.latencies_ms
    if not lat:
        return {"samples": 0}
    tail = stats.highest_reportable(lat)
    return {
        "samples": len(lat),
        "p50_ms": round(stats.median(lat), 3),
        "p90_ms": stats.reportable_percentile(lat, 90),
        "p99_ms": round(stats.percentile(lat, 99), 3),
        "p99_tail_samples": stats.tail_samples(len(lat), 99),
        "highest_reportable": tail,
        "late_p50_ms": round(stats.median(phase.late_ms), 3),
        "late_max_ms": round(max(phase.late_ms), 3),
        "by_endpoint_p50_ms": {k: round(stats.median(v), 3)
                               for k, v in sorted(phase.by_endpoint.items())},
    }


# ----------------------------------------------------------------------
# explore-cold
# ----------------------------------------------------------------------

def explore_cold(seed: int, seconds: float, res: Result, trace: bool) -> None:
    """Cold sweep then resumed sweep, each in a fresh process, until the
    time budget is spent.

    The engine cache and the trial store sit on a tmpfs that only this
    run sees (``common.private_tmpfs``), mounted inside the checkout.  On
    the ext4 host the benchmark was tuned on, the kernel time of one file
    creation ranged from 15 us to about 600 us in phases lasting minutes
    (a mass deletion starts one), while every other file operation of a
    sweep stayed at a few microseconds; a cold sweep creates about 7,000
    files, so the phase alone decided whether it took 2.6 s or 6 s.  On
    tmpfs the program does the same file work without that phase.
    """
    root = os.path.join(common.OUT_DIR, "explore")
    shutil.rmtree(root, ignore_errors=True)
    common.private_tmpfs(root, EXPLORE_TMPFS_MB)
    res.host["store_fs"] = common.filesystem_of(root)
    end = time.perf_counter() + seconds
    colds: List[Dict[str, Any]] = []
    resumes: List[Dict[str, Any]] = []
    traced_dir = ""
    i = 0
    # a traced run makes one untraced pair (the overhead baseline), then one traced pair
    while i < 2 if trace else (i < MIN_OPS or time.perf_counter() < end):
        directory = os.path.join(root, f"sweep-{i}")
        os.makedirs(directory)
        env = common.child_env(REPRO_CACHE_DIR=os.path.join(directory, "cache"))
        traced = trace and i == 1
        pair = []
        for mode in ("cold", "resume"):
            out = os.path.join(directory, f"{mode}-spans.json") if traced else "-"
            child = common.run_child(
                ["explore", mode, directory, str(seed * 1000 + i), out], env=env)
            child["traced"] = traced
            pair.append(child)
            res.op(_child_problems(child, f"{mode} sweep {i}"))
        res.ref()
        if all(c.get("ok") and not c.get("problems") for c in pair):
            colds.append(pair[0])
            resumes.append(pair[1])
        if traced:
            traced_dir = directory
        else:
            shutil.rmtree(directory, ignore_errors=True)
        i += 1
    plain_colds = [c for c in colds if not c["traced"]]
    plain_resumes = [c for c in resumes if not c["traced"]]
    if plain_colds:
        res.metric("setup_s", _setup_s(plain_colds), "s")
        res.metric("peak_rss_mb", stats.median([c["rss_mb"] for c in plain_colds]), "MB")
        resume_s = stats.trimmed_mean([_corrected_s(c) for c in plain_resumes])
        trials_per_s = stats.trimmed_mean([c["trials"] / _corrected_s(c) for c in plain_colds])
        res.metric("latency_ms", resume_s * 1e3, "ms")
        res.metric("throughput_per_s", trials_per_s, "1/s")
        res.info["named"] = {"trials_per_s": trials_per_s, "resume_s": resume_s,
                             "cold_raw_s": [round(c["op_s"], 3) for c in plain_colds],
                             "cold_corrected_s": [round(_corrected_s(c), 3)
                                                  for c in plain_colds]}
        traced_pair = [c for c in colds + resumes if c["traced"]]
        if trace and len(traced_pair) == 2:
            import layers

            res.info["layers"] = layers.explore_layers(
                traced_dir, traced_pair, plain_colds[0], res)
    shutil.rmtree(root, ignore_errors=True)


def _corrected_s(child: Dict[str, Any]) -> float:
    """A sweep's time at the nominal host speed, segment by segment."""
    return sum(stats.corrected(s["raw_s"], s["ref_ms"], common.NOMINAL_REF_MS)
               for s in child["segments"])


def _child_problems(child: Dict[str, Any], label: str) -> List[str]:
    if not child.get("ok"):
        return [f"{label}: {child.get('error')}"]
    return [f"{label}: {p}" for p in child.get("problems", [])]


# ----------------------------------------------------------------------
# scenario-sweep
# ----------------------------------------------------------------------

def scenario_sweep(seed: int, seconds: float, res: Result, trace: bool) -> None:
    setups = [common.run_child(["scenario-setup"]) for _ in range(SETUPS - 1)]
    for child in setups:
        if not child.get("ok"):
            res.op(_child_problems(child, "scenario set-up"))
    directory = _fresh_dir("scenario")
    runs = []
    for traced in ((False, True) if trace else (False,)):
        out = os.path.join(directory, "spans.json") if traced else "-"
        budget = seconds / 2 if trace else seconds
        child = common.run_child(["scenario", str(seed), f"{budget:.3f}", out])
        if not child.get("ok"):
            res.op(_child_problems(child, "scenario"))
            return
        runs.append(child)
    main = runs[0]
    ok_setups = [c for c in setups if c.get("ok")] + [main]
    res.metric("setup_s", _setup_s(ok_setups), "s")
    res.metric("peak_rss_mb", main["rss_mb"], "MB")
    cycles = _scenario_cycles(main, res)
    if not cycles:
        return
    events_per_s = stats.trimmed_mean([c["events_per_s"] for c in cycles])
    res.metric("latency_ms", stats.trimmed_mean([c["op_ms"] for c in cycles]), "ms")
    res.metric("throughput_per_s", events_per_s, "1/s")
    res.info["named"] = {
        "events_per_s": events_per_s,
        "raw_events_per_s": stats.trimmed_mean([c["raw_events_per_s"] for c in cycles]),
        "cycles": len(cycles),
    }
    res.ref_ms.extend(op["ref_ms"] for op in main["ops"])
    if trace:
        import layers

        traced_cycles = _scenario_cycles(runs[1], res)
        res.info["layers"] = layers.scenario_layers(
            os.path.join(directory, "spans.json"), runs[1], cycles, traced_cycles, res)
    shutil.rmtree(directory, ignore_errors=True)


def _scenario_cycles(child: Dict[str, Any], res: Result) -> List[Dict[str, float]]:
    """Per complete machine cycle: host-corrected op time and events/s."""
    by_cycle: Dict[int, List[Dict[str, Any]]] = {}
    for op in child["ops"]:
        res.op(op["problems"])
        by_cycle.setdefault(op["cycle"], []).append(op)
    out = []
    for ops in by_cycle.values():
        if len(ops) != 5 or any(op["problems"] for op in ops):
            continue
        corrected_s = sum(stats.corrected(op["raw_s"], op["ref_ms"], common.NOMINAL_REF_MS)
                          for op in ops)
        raw_s = sum(op["raw_s"] for op in ops)
        events = sum(op["events"] for op in ops)
        out.append({"op_ms": corrected_s / len(ops) * 1e3,
                    "events_per_s": events / corrected_s,
                    "raw_events_per_s": events / raw_s})
    return out


# ----------------------------------------------------------------------
# report-cold
# ----------------------------------------------------------------------

def report_cold(seed: int, seconds: float, res: Result, trace: bool) -> None:
    # The report has no input to vary; the seed only names the run.
    end = time.perf_counter() + seconds
    reports: List[Dict[str, Any]] = []
    directory = _fresh_dir("report")
    traced_child = None
    spans_out = os.path.join(directory, "spans.json")
    i = 0
    while i < MIN_OPS or time.perf_counter() < end:
        traced = trace and i == MIN_OPS - 1
        child = common.run_child(["report", spans_out if traced else "-"])
        if child.get("ok"):
            child["corrected_s"] = _corrected_s(child)
            res.ref_ms.extend(s["ref_ms"] for s in child["segments"])
        if res.op(_child_problems(child, f"report {i}")):
            if traced:
                traced_child = child
            else:
                reports.append(child)
        i += 1
        if trace and i == MIN_OPS:
            break
    if not reports:
        return
    report_s = stats.trimmed_mean([c["corrected_s"] for c in reports])
    res.metric("setup_s", _setup_s(reports), "s")
    res.metric("peak_rss_mb", stats.median([c["rss_mb"] for c in reports]), "MB")
    res.metric("latency_ms", report_s * 1e3, "ms")
    res.metric("throughput_per_s", 1.0 / report_s, "1/s")
    res.info["named"] = {"report_s": report_s, "reports": len(reports),
                         "raw_report_s": stats.trimmed_mean([c["op_s"] for c in reports])}
    if trace and traced_child is not None:
        import layers

        res.info["layers"] = layers.report_layers(spans_out, traced_child, report_s, res)
    shutil.rmtree(directory, ignore_errors=True)


DRIVERS: Dict[str, Callable[[int, float, Result, bool], None]] = {
    "serve-warm": serve_warm,
    "explore-cold": explore_cold,
    "scenario-sweep": scenario_sweep,
    "report-cold": report_cold,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(DRIVERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    common.require_source()
    os.makedirs(common.OUT_DIR, exist_ok=True)
    cpu = common.pin_to_one_cpu()

    res = Result()
    res.host = common.host_start(common.OUT_DIR)
    res.host["pinned_cpu"] = cpu
    res.ref()
    try:
        DRIVERS[args.workload](args.seed, args.seconds, res, bool(args.trace))
    except Exception as err:  # a crash fails the run but still prints its result
        traceback.print_exc()
        res.op([f"{args.workload}: {type(err).__name__}: {err}"])
    res.host["load_end"] = common.load_average()
    res.host["ref_ms"] = round(stats.median(res.ref_ms), 4)
    if args.trace:
        res.metrics.clear()
        import layers

        res.metrics.update(layers.finish(args.workload, res))

    print("host: " + json.dumps(res.host, sort_keys=True))
    for key, value in sorted(res.info.items()):
        if key != "layers":
            print(f"{key}: " + json.dumps(value, sort_keys=True, default=str))
    if "layers" in res.info:
        print(res.info["layers"])
    for problem in res.problems[:20]:
        print(f"check failed: {problem}")
    for name, metric in sorted(res.metrics.items()):
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    correct = res.failed == 0 and res.attempted > 0 and not res.problems
    print(json.dumps({"correct": correct, "attempted": max(res.attempted, 1),
                      "failed": res.failed if res.attempted else 1,
                      "metrics": res.metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
