"""One fresh-process operation, driven by ``run.py``.

Usage (from the checkout root, with ``src`` and ``repobench`` on
``PYTHONPATH``)::

    child.py explore cold|resume DIR SEED TRACE_OUT
    child.py report TRACE_OUT
    child.py scenario-setup
    child.py scenario SEED SECONDS TRACE_OUT

``TRACE_OUT`` is ``-`` for an untraced run, else the file the span
dump is written to.  The last stdout line is one JSON object; its
``ready_t`` is ``time.perf_counter()`` when set-up finished, on the
same monotonic clock the parent stamped the launch with, and
``setup_ref_ms``/``setup_skip_s`` come from :class:`SetupClock`.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import time
from typing import Any, Dict, List, Optional

import common

#: digest of the scaling space's Pareto frontier (8 points, 384 trials),
#: independent of visit order.
FRONTIER_DIGEST = "f00ffc00406920bcf574bf63c1462d026297f4e9f63dde171af49bbda072068b"
FRONTIER_SIZE = 8
SPACE_TRIALS = 384
#: trials per timed chunk of an explore sweep.
EXPLORE_CHUNK = 16
#: seconds between reference-kernel samples during an untraced report.
REPORT_SAMPLE_S = 0.1
#: sha256 of ``full_report()`` text.
REPORT_DIGEST = "0e0834e72ea18e0a662ac4633753b4a03619d33232c061ce7bad944c8fd09ae2"

SCENARIO_MACHINES = ("cvax", "r3000", "sparc", "i860", "osfriendly")
#: closed-form kernelization-cost order, cheapest first.
SCENARIO_ORDER = ["osfriendly", "r3000", "i860", "sparc", "cvax"]
SCENARIO_EVENTS = 3000
SCENARIO_REPLICATIONS = 3


class SetupClock:
    """Brackets this process's set-up with reference-kernel runs.

    A set-up lasts well under a second, so references at its start and
    at its end see the host speed it ran at.  The first reference runs
    inside the set-up interval; its length is reported so the parent
    can take it out again.
    """

    def __init__(self) -> None:
        t0 = time.perf_counter()
        self.ref_start = common.reference_kernel()
        self.skip_s = time.perf_counter() - t0

    def ready(self) -> Dict[str, Any]:
        ready_t = time.perf_counter()
        ref_ready = common.reference_kernel()
        return {"ready_t": ready_t, "setup_skip_s": self.skip_s,
                "setup_ref_ms": (self.ref_start + ref_ready) / 2.0,
                "ready_ref_ms": ref_ready}


def _tracer(trace_out: str, workload: str):
    """Install the span wrappers when tracing; returns the recorder or None."""
    if trace_out == "-":
        return None
    import tracer

    recorder = tracer.Recorder()
    tracer.install(recorder, tracer.targets_for(workload))
    return recorder


def _emit(result: Dict[str, Any]) -> None:
    result.setdefault("rss_mb", common.peak_rss_mb())
    print(json.dumps(result, sort_keys=True))


def _file_stats(root: str) -> Dict[str, int]:
    files = size = 0
    for base, _dirs, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(base, name))
    return {"files": files, "bytes": size}


class Segments:
    """Wall time of one operation, cut at reference-kernel runs.

    :meth:`mark` closes the segment running since the previous mark and
    then runs the reference kernel, which belongs to no segment; so the
    segments tile the whole operation, and each carries the mean of the
    reference times on either side of it, from which the parent puts it
    at nominal host speed the way scenario-sweep scales its operations.
    A whole sweep lasts seconds, long enough for the host's speed to
    change several times.
    """

    def __init__(self, ref_ms: float, reference: bool) -> None:
        self.reference = reference
        self.parts: List[Dict[str, float]] = []
        self._ref_ms = ref_ms
        self._t0 = time.perf_counter()

    def mark(self, trials: int = 0) -> None:
        raw_s = time.perf_counter() - self._t0
        ref_ms = common.reference_kernel() if self.reference else 0.0
        self.parts.append({"trials": trials, "raw_s": raw_s,
                           "ref_ms": (self._ref_ms + ref_ms) / 2.0})
        self._ref_ms = ref_ms
        self._t0 = time.perf_counter()


class ChunkedSearch:
    """The ``random`` strategy's visit order, evaluated in fixed chunks.

    Each chunk is one generation of the runner, and the segment clock
    is marked after each, so a sweep is corrected chunk by chunk.
    """

    name = "random"

    def __init__(self, budget: int, chunk: int, segments: Segments) -> None:
        from repro.explore import make_strategy

        self.inner = make_strategy("random", budget)
        self.chunk = chunk
        self.segments = segments

    def run(self, space: Any, evaluate: Any, seed: int = 0) -> None:
        order: List[int] = []
        self.inner.run(space, lambda batch: order.extend(batch) or [], seed=seed)
        for start in range(0, len(order), self.chunk):
            part = order[start:start + self.chunk]
            evaluate(part)
            self.segments.mark(trials=len(part))


def explore(clock: SetupClock, mode: str, directory: str, seed: int,
            trace_out: str) -> None:
    """One sweep, timed whole: loading the trial store (the WAL and any
    compacted segment), the search, and the runner's closing frontier
    and metrics work."""
    recorder = _tracer(trace_out, "explore-cold")
    from repro.explore import ExploreRunner, ObjectiveSchema, ResultStore
    from repro.explore.space import get_space

    wal = os.path.join(directory, "trials.jsonl")
    space = get_space("scaling")
    schema = ObjectiveSchema()
    setup = clock.ready()
    op = recorder.op_span(f"{mode}-sweep") if recorder else None
    if op:
        op.__enter__()
    segments = Segments(setup["ready_ref_ms"], reference=recorder is None)
    store = ResultStore(wal)
    search = ChunkedSearch(SPACE_TRIALS, EXPLORE_CHUNK, segments)
    runner = ExploreRunner(space, schema, strategy=search, store=store,
                           budget=SPACE_TRIALS)
    result = runner.run(seed=seed)
    segments.mark()
    if op:
        op.__exit__(None, None, None)
    rss_mb = common.peak_rss_mb()
    op_s = sum(part["raw_s"] for part in segments.parts)
    # imported after the operation so the check adds nothing to it
    from repro.cluster.launch import frontier_fingerprint

    fingerprint = frontier_fingerprint(store, schema)
    problems: List[str] = []
    if fingerprint["digest"] != FRONTIER_DIGEST:
        problems.append(f"frontier digest {fingerprint['digest'][:16]}")
    if fingerprint["frontier_size"] != FRONTIER_SIZE:
        problems.append(f"frontier size {fingerprint['frontier_size']}")
    if fingerprint["trials"] != SPACE_TRIALS or result.stats.trials != SPACE_TRIALS:
        problems.append(f"trials {fingerprint['trials']}/{result.stats.trials}")
    expected_hits = SPACE_TRIALS if mode == "resume" else 0
    if result.stats.store_hits != expected_hits:
        problems.append(f"store hits {result.stats.store_hits} != {expected_hits}")
    out: Dict[str, Any] = {
        **setup, "op_s": op_s, "problems": problems, "segments": segments.parts,
        "store_hits": result.stats.store_hits, "trials": result.stats.trials,
        "rss_mb": rss_mb,
    }
    if recorder:
        cache = _file_stats(os.path.join(directory, "cache"))
        out["files"] = {
            "cache": cache,
            "wal_bytes": os.path.getsize(wal) if os.path.exists(wal) else 0,
            "sidecar_bytes": sum(
                os.path.getsize(p) for p in (
                    os.path.join(directory, "cache", "lineage.jsonl"),
                    wal + ".lineage.jsonl") if os.path.exists(p)),
        }
        recorder.dump(trace_out)
    _emit(out)


def report(clock: SetupClock, trace_out: str) -> None:
    """One ``full_report()``.  It cannot be split from outside, so in an
    untraced run an interval timer interrupts it every
    :data:`REPORT_SAMPLE_S` to run the reference kernel, cutting it into
    segments the parent puts at nominal host speed one by one: the
    host's speed changes within a two-second report.  A traced run takes
    no samples (its spans would count them) and is one segment."""
    recorder = _tracer(trace_out, "report-cold")
    from repro.core.report import full_report

    setup = clock.ready()
    op = recorder.op_span("report") if recorder else None
    if op:
        op.__enter__()
    segments = Segments(setup["ready_ref_ms"], reference=True)
    if recorder is None:
        signal.signal(signal.SIGALRM, lambda _signum, _frame: segments.mark())
        signal.setitimer(signal.ITIMER_REAL, REPORT_SAMPLE_S, REPORT_SAMPLE_S)
    text = full_report()
    signal.setitimer(signal.ITIMER_REAL, 0)
    if op:
        op.__exit__(None, None, None)
    segments.mark()
    op_s = sum(part["raw_s"] for part in segments.parts)
    problems = []
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != REPORT_DIGEST:
        problems.append(f"report digest {digest[:16]}")
    refuted = [line for line in text.splitlines() if line.rstrip().endswith(" NO")]
    if refuted:
        problems.append(f"{len(refuted)} claim(s) read NO")
    if recorder:
        recorder.dump(trace_out)
    _emit({**setup, "op_s": op_s, "segments": segments.parts, "problems": problems})


def _scenario_setup():
    from repro.arch.registry import get_arch
    from repro.scenarios.fitters import fit_table7_pair

    models = fit_table7_pair("andrew-local")
    specs = {name: get_arch(name) for name in SCENARIO_MACHINES}
    return models, specs


def scenario_setup(clock: SetupClock) -> None:
    _scenario_setup()
    _emit({**clock.ready(), "problems": []})


def scenario(clock: SetupClock, seed: int, seconds: float, trace_out: str) -> None:
    """Cycle the machines until ``seconds`` pass; one op = one machine,
    both structures, :data:`SCENARIO_REPLICATIONS` seeded replications."""
    recorder = _tracer(trace_out, "scenario-sweep")
    models, specs = _scenario_setup()
    from repro.scenarios.report import kernelization_sweep

    setup = clock.ready()
    end = time.perf_counter() + seconds
    ops: List[Dict[str, Any]] = []
    problems: List[str] = []
    ref_before = common.reference_kernel()
    cycle = 0
    while time.perf_counter() < end:
        seeds = [seed * 10_000 + cycle * SCENARIO_REPLICATIONS + k
                 for k in range(SCENARIO_REPLICATIONS)]
        results = []
        for name in SCENARIO_MACHINES:
            op_id = f"{name}/{seeds[0]}"
            span = recorder.op_span(op_id) if recorder else None
            if span:
                span.__enter__()
            t0 = time.perf_counter()
            sweep = kernelization_sweep("andrew-local", [specs[name]], seeds,
                                        SCENARIO_EVENTS, models=models)
            raw_s = time.perf_counter() - t0
            if span:
                span.__exit__(None, None, None)
            ref_after = common.reference_kernel()
            result = sweep.results[0]
            records = result.monolithic.records + result.kernelized.records
            events = sum(r["aggregate"]["events"] for r in records)
            short = [r["seed"] for r in records
                     if r["aggregate"]["events"] != SCENARIO_EVENTS]
            op_problems = [f"{name}: seeds {short} streamed short"] if short else []
            results.append(result)
            ops.append({"machine": name, "cycle": cycle, "raw_s": raw_s,
                        "ref_ms": (ref_before + ref_after) / 2.0,
                        "events": events, "problems": op_problems})
            ref_before = ref_after
        sampled = [r.arch_name for r in sorted(
            results, key=lambda r: (r.cost_ci()["mean"], r.arch_name))]
        expected = [r.arch_name for r in sorted(
            results, key=lambda r: (r.expected_cost, r.arch_name))]
        if sampled != SCENARIO_ORDER or expected != SCENARIO_ORDER:
            ops[-1]["problems"].append(
                f"cycle {cycle} order {' < '.join(sampled)}")
        cycle += 1
    if recorder:
        recorder.dump(trace_out)
    _emit({**setup, "ops": ops, "problems": problems})


def main(argv: Optional[List[str]] = None) -> int:
    clock = SetupClock()
    args = list(sys.argv[1:] if argv is None else argv)
    common.require_source()
    kind = args.pop(0)
    if kind == "explore":
        explore(clock, args[0], args[1], int(args[2]), args[3])
    elif kind == "report":
        report(clock, args[0])
    elif kind == "scenario-setup":
        scenario_setup(clock)
    elif kind == "scenario":
        scenario(clock, int(args[0]), float(args[1]), args[2])
    else:
        raise SystemExit(f"unknown child operation {kind!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
