"""Scenario-engine benchmarks: streaming throughput and replication reuse.

The headline number is **events per second** through the full
generate → cost → sketch pipeline (the cold path every fresh
replication pays); the second is the **store-reuse speedup** — a
re-run scenario answering from the content-addressed WAL instead of
re-streaming, which is what makes wide sweeps over a shared store
cheap.  Both feed the scenarios section ``scripts/perf_report.py``
pins into ``BENCH_engine.json``.
"""

from repro.arch import get_arch
from repro.os_models.mach import OSStructure
from repro.scenarios import (
    OnlineAggregate,
    ScenarioEventKind,
    ScenarioRunner,
    fit_table7,
    generate_events,
    run_replication,
)

EVENTS = 50_000


def _rate(benchmark, count, unit):
    """`` (N unit/s)`` over the timed rounds; empty when timing is off
    (``--benchmark-disable`` leaves ``benchmark.stats`` None)."""
    if benchmark.stats is None:
        return ""
    return f" ({count / benchmark.stats.stats.mean:,.0f} {unit}/s)"


def bench_scenario_event_stream(benchmark, show):
    """Pure generation: merged renewal processes off the k-entry heap."""
    model = fit_table7("andrew-local", OSStructure.KERNELIZED)

    def drain():
        count = 0
        for _ in generate_events(model, seed=0, max_events=EVENTS):
            count += 1
        return count

    count = benchmark(drain)
    assert count == EVENTS
    show("Scenarios: event generation",
         f"{EVENTS} events/round from {len(model.kinds())} merged renewal "
         f"processes{_rate(benchmark, EVENTS, 'events')}")


def bench_scenario_replication_cold(benchmark, show):
    """The full cold path: generate + cost + bounded-memory sketches."""
    model = fit_table7("andrew-local", OSStructure.KERNELIZED)
    spec = get_arch("r3000")

    row = benchmark(run_replication, model, spec,
                    OSStructure.KERNELIZED, 0, EVENTS)
    assert row["aggregate"]["events"] == EVENTS
    show("Scenarios: cold replication (generate + cost + sketch)",
         f"{EVENTS} events/replication on r3000/mach3.0"
         f"{_rate(benchmark, EVENTS, 'events')}; OS share "
         f"{row['aggregate']['os_share']:.3f} vs closed-form "
         f"{row['expected_os_share']:.3f}")


def bench_scenario_replication_reuse(benchmark, show, tmp_path):
    """A warm store answers a whole scenario without streaming."""
    store = str(tmp_path / "scen.jsonl")
    model = fit_table7("andrew-local", OSStructure.KERNELIZED)
    spec = get_arch("r3000")
    seeds = list(range(5))
    warm = ScenarioRunner(store=store).run(
        model, spec, OSStructure.KERNELIZED, seeds, EVENTS)
    assert warm.stats.fresh == len(seeds)

    def reread():
        return ScenarioRunner(store=store).run(
            model, spec, OSStructure.KERNELIZED, seeds, EVENTS)

    result = benchmark(reread)
    assert result.stats.store_hits == len(seeds)
    assert result.stats.fresh == 0
    timing = ("" if benchmark.stats is None
              else f" in {benchmark.stats.stats.mean * 1e3:.1f} ms")
    show("Scenarios: replication reuse",
         f"{len(seeds)} x {EVENTS}-event replications answered from the "
         f"content-addressed store{timing} (store open included)")


def bench_scenario_sketch_update(benchmark, show):
    """The per-event sketch cost alone (no generation, no costing)."""
    agg_holder = {}

    def fold():
        agg = OnlineAggregate(window_us=10_000.0)
        at = 0.0
        for i in range(EVENTS):
            at += 50.0
            agg.observe(at, ScenarioEventKind.SYSCALL, 5.0)
        agg_holder["agg"] = agg
        return agg.events

    count = benchmark(fold)
    assert count == EVENTS
    show("Scenarios: OnlineAggregate fold",
         f"{EVENTS} observations/round through Welford + P2 windows"
         f"{_rate(benchmark, EVENTS, 'obs')} "
         f"({agg_holder['agg'].window_utilization.count} windows closed)")
