#!/usr/bin/env python
"""The CI timing gates, in one process::

    python scripts/gates.py

Takes no arguments and writes no files.  Prints one line per gate and
exits 1 if any gate fails:

* **obs** — the executor with telemetry disabled (one ``observer is
  None`` branch per instruction) against :func:`baseline_run`, the
  pre-telemetry loop: ratio < 1.03, best of up to 3
  :func:`measure_overhead` attempts, both loops giving equal results;
* **lineage** — cold full-table regeneration with provenance on
  against off: ratio < 1.02, best of up to 5
  :func:`measure_lineage_overhead` attempts, both modes rendering equal
  tables;
* **compiled** — ``run_compiled`` per job, the engine's cold-key call,
  against the interpreter per job over every executor job a cold
  mechanisms-grid sweep makes (1,152): steady >= 10x, the median ratio
  of 5 interleaved interpreter/compiled rounds, and cold >= 6x, first
  pass against first pass, with all three result lists bit-identical.

The overhead probes run first, before the grid is allocated, and
collect no garbage before their timed blocks.  A collection there
lowers the ratio the lineage gate reads (10 runs each on a 2-vCPU
host: median 0.994 with it, 1.007 without), which would help best-of
pass a bound that the median cost of recording exceeds
(docs/PROVENANCE.md, "Cost").
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time
from typing import Any, Dict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.isa.executor import ExecutionResult, Executor, OpClass, PhaseCost  # noqa: E402
from repro.isa.program import Program  # noqa: E402

#: the bound on instrumented-but-disabled executor runs.
MAX_DISABLED_OVERHEAD = 1.03
#: the bound on lineage recording over cold table renders.
MAX_LINEAGE_OVERHEAD = 1.02
#: the compiled per-job floors: steady, and first pass.
MIN_STEADY_SPEEDUP = 10.0
MIN_COLD_SPEEDUP = 6.0
#: interleaved interpreter/compiled rounds behind the steady ratio.
STEADY_ROUNDS = 5


def baseline_run(executor: Executor, program: Program,
                 drain_write_buffer: bool = False) -> ExecutionResult:
    """The seed-era run loop: identical accounting, no observer hook.

    Uses ``executor._instruction_cost`` so the cost model can never
    drift from the instrumented loop; the only difference under test is
    the per-instruction observer branch.
    """
    executor._write_buffer.reset()
    result = ExecutionResult(
        program_name=program.name,
        arch_name=executor.arch.name,
        clock_mhz=executor.arch.clock_mhz,
    )
    now = 0.0
    for inst in program:
        counted, cycles, stalls = executor._instruction_cost(inst, now)
        now += cycles
        result.instructions += counted
        result.cycles += cycles
        result.stall_cycles += stalls
        if inst.opclass is OpClass.NOP:
            result.nop_instructions += 1
        phase = result.by_phase.setdefault(inst.phase, PhaseCost())
        phase.add(counted, cycles, stalls)
    if drain_write_buffer:
        drain = executor._write_buffer.drain_time(now)
        result.cycles += drain
        result.stall_cycles += drain
        if drain:
            phase = result.by_phase.setdefault("write_buffer_drain", PhaseCost())
            phase.add(0, drain, drain)
    return result


def measure_overhead(repeats: int = 150, rounds: int = 5) -> Dict[str, Any]:
    """Race instrumented-but-disabled vs baseline executor runs.

    Each round times ``repeats`` back-to-back runs of the longest
    handler program in the suite (the i860 PTE change, 559+ records)
    both ways; the reported ratio divides the best (least-noisy) round
    of each.  Returns ``baseline_ms``, ``instrumented_ms``, ``ratio``,
    and ``identical`` (the two loops produced equal results).
    """
    from repro.arch.registry import get_arch
    from repro.kernel.handlers import handler_program
    from repro.kernel.primitives import Primitive

    arch = get_arch("i860")
    program = handler_program(arch, Primitive.PTE_CHANGE)
    executor = Executor(arch)

    identical = executor.run(program) == baseline_run(executor, program)

    def _time(fn) -> float:
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            for _ in range(repeats):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    # Interleave measurement order across rounds by timing baseline
    # first and instrumented second, then once more reversed, keeping
    # the better of each — damps drift from CPU frequency ramps.
    baseline_ms = _time(lambda: baseline_run(executor, program))
    instrumented_ms = _time(lambda: executor.run(program))
    instrumented_ms = min(instrumented_ms, _time(lambda: executor.run(program)))
    baseline_ms = min(baseline_ms, _time(lambda: baseline_run(executor, program)))

    return {
        "program": program.name,
        "repeats": repeats,
        "rounds": rounds,
        "baseline_ms": baseline_ms,
        "instrumented_ms": instrumented_ms,
        "ratio": instrumented_ms / baseline_ms if baseline_ms else float("inf"),
        "identical": identical,
    }


def measure_lineage_overhead(repeats: int = 3, rounds: int = 3) -> Dict[str, Any]:
    """Race cold full-table regeneration with lineage on vs off.

    Returns ``disabled_ms``, ``enabled_ms``, ``ratio``
    (enabled/disabled), ``identical`` (both modes rendered equal
    tables), and the workload shape.  Restores the provenance toggle it
    found.
    """
    from repro.analysis import runner
    from repro.core.engine import (
        ExperimentEngine,
        default_engine,
        set_default_engine,
    )
    from repro.provenance import provenance_enabled, set_provenance_enabled

    previous_engine = default_engine()

    def cold_tables() -> "dict[int, str]":
        # a fresh default engine too: every experiment truly executes —
        # table modules measure through the process-wide engine, so
        # only swapping it makes the run cold rather than rehydrated
        set_default_engine(ExperimentEngine())
        try:
            return runner.render_all(engine=ExperimentEngine())
        finally:
            set_default_engine(previous_engine)

    def _timed() -> float:
        t0 = time.perf_counter()
        for _ in range(repeats):
            cold_tables()
        return (time.perf_counter() - t0) / repeats * 1e3

    was = provenance_enabled()
    try:
        set_provenance_enabled(True)
        enabled_tables = cold_tables()  # also warms synthesis caches
        set_provenance_enabled(False)
        identical = cold_tables() == enabled_tables

        # Alternate off/on inside every round and keep each mode's best:
        # CPU-frequency drift hits both modes of a round equally, so the
        # ratio stays honest even when absolute times wander.
        disabled_ms = enabled_ms = float("inf")
        for _ in range(rounds):
            set_provenance_enabled(False)
            disabled_ms = min(disabled_ms, _timed())
            set_provenance_enabled(True)
            enabled_ms = min(enabled_ms, _timed())
    finally:
        set_provenance_enabled(was)

    return {
        "workload": "render_all-cold",
        "tables": len(enabled_tables),
        "repeats": repeats,
        "rounds": rounds,
        "disabled_ms": disabled_ms,
        "enabled_ms": enabled_ms,
        "ratio": enabled_ms / disabled_ms if disabled_ms else float("inf"),
        "identical": identical,
    }


def overhead_gate(name: str, probe, attempts: int, bound: float,
                  subject: str) -> bool:
    """Run ``probe`` until its ratio is under ``bound`` or ``attempts``
    run out, and gate on the lowest ratio; diverging results fail at
    once."""
    best = None
    for ran in range(1, attempts + 1):
        result = probe()
        if not result["identical"]:
            best = result
            break
        if best is None or result["ratio"] < best["ratio"]:
            best = result
        if best["ratio"] < bound:
            break
    ok = best["identical"] and best["ratio"] < bound
    same = "identical" if best["identical"] else "DIVERGED"
    print(f"{'PASS' if ok else 'FAIL'} {name}: ratio {best['ratio']:.4f} "
          f"(bound < {bound}), best of {ran} attempt(s); "
          f"{subject} {same}", flush=True)
    return ok


def compiled_gate() -> bool:
    from repro.core.engine import result_to_dict
    from repro.core.microbench import measurement_jobs
    from repro.explore.space import mechanisms_space
    from repro.isa.compiled import run_compiled
    from repro.isa.executor import run_on

    # Every executor job a cold sweep of the 96-point mechanisms grid
    # makes (measure_primitives' 12 jobs per point).  Lowering happens
    # during handler synthesis here, as on a production cold run.
    space = mechanisms_space()
    jobs = [
        (spec, program, drain)
        for _, point in space.points()
        for spec in (space.materialize(point),)
        for program, drain in measurement_jobs(spec)
    ]

    def interpret():
        return [run_on(spec, program, drain_write_buffer=drain)
                for spec, program, drain in jobs]

    def compile_():
        return [run_compiled(spec, program, drain_write_buffer=drain)
                for spec, program, drain in jobs]

    def timed(fn) -> "tuple[float, list]":
        # A collection before every pass, on both sides, keeps garbage
        # left by one pass from being collected inside the next: on a
        # 2-vCPU host, 100 steady compiled passes took a median 27.5 ms
        # without it (up to 58 ms) and 21.3 ms with it.
        gc.collect()
        t0 = time.perf_counter()
        results = fn()
        return (time.perf_counter() - t0) * 1e3, results

    interp_ms, interp_results = timed(interpret)
    first_ms, first_results = timed(compile_)
    ratios = []
    for _ in range(STEADY_ROUNDS):
        round_interp_ms, _ = timed(interpret)
        round_ms, steady_results = timed(compile_)
        ratios.append(round_interp_ms / round_ms)
    steady = round(statistics.median(ratios), 2)
    cold = round(interp_ms / first_ms, 2)
    identical = len(interp_results) == len(first_results) and all(
        result_to_dict(a) == result_to_dict(b) == result_to_dict(c)
        for a, b, c in zip(interp_results, first_results, steady_results))
    ok = (identical and steady >= MIN_STEADY_SPEEDUP
          and cold >= MIN_COLD_SPEEDUP)
    print(f"{'PASS' if ok else 'FAIL'} compiled: steady {steady}x "
          f"(floor {MIN_STEADY_SPEEDUP:g}x), cold {cold}x "
          f"(floor {MIN_COLD_SPEEDUP:g}x) over {len(jobs)} jobs; results "
          f"{'bit-identical' if identical else 'DIVERGED'}", flush=True)
    return ok


def main() -> int:
    results = [
        overhead_gate("obs disabled overhead", measure_overhead, 3,
                      MAX_DISABLED_OVERHEAD, "loops"),
        overhead_gate(
            "lineage overhead",
            lambda: measure_lineage_overhead(repeats=3, rounds=5), 5,
            MAX_LINEAGE_OVERHEAD, "tables"),
        compiled_gate(),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
