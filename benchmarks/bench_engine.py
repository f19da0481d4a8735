"""Experiment-engine benchmarks: memoization, batching, fan-out.

Four timings bracket the engine's value:

* cold — a fresh engine regenerates all seven tables from scratch;
* warm — the same engine regenerates them from the content-addressed
  cache (this is the trajectory number ``scripts/perf_report.py``
  snapshots into ``BENCH_engine.json``);
* batched replay — the fill-order TLB replay (one dict probe per
  same-page run) against the scalar reference loop;
* compiled grid — the full executor workload of a cold
  mechanisms-grid sweep, job by job through ``run_compiled`` (the
  engine's cold path) against the interpreter (the
  ``compiled_*_grid`` snapshot numbers).

Each benchmark also asserts the correctness contract it depends on:
cached output equals direct output, batched equals scalar, compiled
bit-identical to interpreted.
"""

from repro.analysis import runner
from repro.arch.registry import get_arch
from repro.core.engine import ExperimentEngine
from repro.core.tracing import TraceConfig, replay_trace, replay_trace_batched


def _grid_jobs():
    """Every executor job a cold mechanisms-grid sweep generates."""
    from repro.core.microbench import measurement_jobs
    from repro.explore.space import mechanisms_space

    space = mechanisms_space()
    return [
        (spec, program, drain)
        for _, point in space.points()
        for spec in (space.materialize(point),)
        for program, drain in measurement_jobs(spec)
    ]


def bench_engine_tables_cold(benchmark, show):
    """Full-table regeneration with an empty cache every round."""

    def cold():
        return runner.render_all(engine=ExperimentEngine())

    tables = benchmark(cold)
    assert sorted(tables) == list(runner.ALL_TABLE_NUMBERS)
    show("Engine: cold full-table regeneration",
         f"{len(tables)} tables rendered from scratch per round")


def bench_engine_tables_warm(benchmark, show):
    """Full-table regeneration served from the memoized engine."""
    engine = ExperimentEngine()
    cold = runner.render_all(engine=engine)

    warm = benchmark(lambda: runner.render_all(engine=engine))
    assert warm == cold  # cache hits are bit-identical to the cold render
    assert engine.hits > 0
    show("Engine: warm full-table regeneration",
         f"{engine.hits} cache hits / {engine.misses} misses this session")


def bench_engine_memoized_run(benchmark, show):
    """A single memoized executor run (hit path: fingerprint + rehydrate)."""
    from repro.kernel.handlers import handler_program
    from repro.kernel.primitives import Primitive

    engine = ExperimentEngine()
    arch = get_arch("sparc")
    program = handler_program(arch, Primitive.NULL_SYSCALL)
    direct = engine.run(arch, program)

    result = benchmark(lambda: engine.run(arch, program))
    assert result == direct
    show("Engine: memoized run", f"{program.name}: {result.cycles:.0f} cycles")


def bench_replay_batched(benchmark, show):
    """Fill-order trace replay, one dict probe per run; pinned to scalar."""
    tlb = get_arch("cvax").tlb
    config = TraceConfig()
    scalar = replay_trace(tlb, config)

    stats = benchmark(lambda: replay_trace_batched(tlb, config))
    assert stats == scalar
    show("Engine: batched replay",
         f"{stats.references:,} references, {stats.misses:,} misses "
         "(the same stats as the scalar TLB loop)")


def bench_replay_scalar_reference(benchmark, show):
    """The scalar replay loop, kept as the comparison baseline."""
    tlb = get_arch("cvax").tlb
    stats = benchmark(lambda: replay_trace(tlb, TraceConfig()))
    show("Engine: scalar replay baseline", f"{stats.references:,} references")


def bench_compiled_grid(benchmark, show):
    """Compiled per-job execution of the cold grid; pinned bit-identical."""
    from repro.core.engine import result_to_dict
    from repro.isa.compiled import run_compiled
    from repro.isa.executor import run_on

    jobs = _grid_jobs()
    reference = [
        result_to_dict(run_on(spec, program, drain_write_buffer=drain))
        for spec, program, drain in jobs
    ]

    results = benchmark(lambda: [
        run_compiled(spec, program, drain_write_buffer=drain)
        for spec, program, drain in jobs
    ])
    assert [result_to_dict(r) for r in results] == reference
    show("Engine: compiled grid sweep",
         f"{len(jobs)} executor jobs over {len({id(s) for s, _, _ in jobs})} "
         "design points (bit-identical to the interpreter)")


def bench_interpreted_grid_reference(benchmark, show):
    """The interpreter on the same grid workload, kept as the baseline."""
    from repro.isa.executor import run_on

    jobs = _grid_jobs()
    results = benchmark(lambda: [
        run_on(spec, program, drain_write_buffer=drain)
        for spec, program, drain in jobs
    ])
    assert len(results) == len(jobs)
    show("Engine: interpreted grid baseline", f"{len(jobs)} executor jobs")
