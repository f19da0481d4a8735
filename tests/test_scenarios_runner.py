"""Sketches and the streaming scenario runner."""

import os
import tracemalloc

import pytest

from repro.arch import get_arch
from repro.os_models.mach import OSStructure
from repro.scenarios import (
    CostModel,
    OnlineAggregate,
    P2Quantile,
    ScenarioEventKind,
    ScenarioRunner,
    StreamingMoments,
    aggregate_digest,
    confidence_interval,
    fit_table7,
    replication_key,
    run_replication,
    shard_seeds,
)
from repro.scenarios.distributions import rng_for
from repro.scenarios.sketches import merge_moments, quantile_reference


# ----------------------------------------------------------------------
# sketches
# ----------------------------------------------------------------------

def test_welford_matches_direct_moments():
    rng = rng_for(0, "welford")
    values = [rng.uniform(0, 100) for _ in range(1_000)]
    moments = StreamingMoments()
    for v in values:
        moments.add(v)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert moments.mean == pytest.approx(mean)
    assert moments.variance == pytest.approx(var)


def test_p2_quantile_tracks_exact_quantiles():
    rng = rng_for(1, "p2")
    values = [rng.expovariate(0.1) for _ in range(5_000)]
    for p in (0.5, 0.9, 0.99):
        sketch = P2Quantile(p)
        for v in values:
            sketch.add(v)
        exact = quantile_reference(values, p)
        assert sketch.value == pytest.approx(exact, rel=0.10)


def test_p2_quantile_small_samples_are_exact():
    sketch = P2Quantile(0.5)
    assert sketch.value == 0.0
    for v in (5.0, 1.0, 3.0):
        sketch.add(v)
    assert sketch.value == quantile_reference([5.0, 1.0, 3.0], 0.5)


def test_p2_quantile_validates_p():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)


def test_merge_moments_equals_single_pass():
    rng = rng_for(2, "merge")
    values = [rng.uniform(0, 10) for _ in range(300)]
    whole = StreamingMoments()
    for v in values:
        whole.add(v)
    parts = [StreamingMoments() for _ in range(3)]
    for i, v in enumerate(values):
        parts[i % 3].add(v)
    merged = merge_moments(parts + [StreamingMoments()])
    assert merged.count == whole.count
    assert merged.mean == pytest.approx(whole.mean)
    assert merged.variance == pytest.approx(whole.variance)
    assert merge_moments([StreamingMoments()]) is None


def test_online_aggregate_windows_and_shares():
    agg = OnlineAggregate(window_us=100.0)
    # 10 events, 50us apart, each costing 20us of OS time
    for i in range(1, 11):
        agg.observe(i * 50.0, ScenarioEventKind.SYSCALL, 20.0)
    payload = agg.payload()
    assert payload["events"] == 10
    assert payload["os_us"] == pytest.approx(200.0)
    assert payload["os_share"] == pytest.approx(200.0 / 500.0)
    # windows close when their right edge is reached: the events at
    # t=100..500 close the five windows ending at 100..500
    assert payload["utilization"]["windows"] == 5
    assert payload["counts"] == {"syscall": 10}
    assert payload["inter_arrival_us"]["syscall"]["mean"] == pytest.approx(50.0)


def test_online_aggregate_validates_window():
    with pytest.raises(ValueError):
        OnlineAggregate(window_us=0.0)


def test_confidence_interval_shrinks_with_replications():
    ci3 = confidence_interval([1.0, 2.0, 3.0])
    assert ci3["mean"] == pytest.approx(2.0)
    assert ci3["low"] < 2.0 < ci3["high"]
    ci1 = confidence_interval([2.0])
    assert ci1["half_width"] == 0.0 and ci1["df"] == 0
    with pytest.raises(ValueError):
        confidence_interval([])


# ----------------------------------------------------------------------
# cost model + replication
# ----------------------------------------------------------------------

def test_cost_model_covers_every_kind():
    cost = CostModel(get_arch("r3000"), OSStructure.MONOLITHIC)
    assert set(cost.cost_us) == set(ScenarioEventKind)
    assert all(v >= 0 for v in cost.cost_us.values())
    assert cost.cost_us[ScenarioEventKind.IPC_MESSAGE] == 0.0
    kern = CostModel(get_arch("r3000"), OSStructure.KERNELIZED)
    assert kern.cost_us[ScenarioEventKind.IPC_MESSAGE] > 0.0


def test_replication_is_bit_identical_per_seed():
    model = fit_table7("spellcheck-1", OSStructure.MONOLITHIC)
    spec = get_arch("r3000")
    a = run_replication(model, spec, OSStructure.MONOLITHIC, 0, 2_000)
    b = run_replication(model, spec, OSStructure.MONOLITHIC, 0, 2_000)
    c = run_replication(model, spec, OSStructure.MONOLITHIC, 1, 2_000)
    assert a["aggregate_digest"] == b["aggregate_digest"]
    assert a["aggregate_digest"] != c["aggregate_digest"]
    assert a["aggregate"] == b["aggregate"]
    assert aggregate_digest(a["aggregate"]) == a["aggregate_digest"]


def test_replication_converges_on_expected_share():
    model = fit_table7("andrew-local", OSStructure.MONOLITHIC)
    row = run_replication(model, get_arch("r3000"),
                          OSStructure.MONOLITHIC, 3, 50_000)
    assert row["aggregate"]["os_share"] == pytest.approx(
        row["expected_os_share"], rel=0.05)


def test_replication_memory_is_bounded():
    """1M-scale streams must not materialize: peak traced allocation
    stays far below the event-list size (~tens of MB)."""
    model = fit_table7("spellcheck-1", OSStructure.MONOLITHIC)
    spec = get_arch("r3000")
    run_replication(model, spec, OSStructure.MONOLITHIC, 0, 1_000)  # warm
    tracemalloc.start()
    run_replication(model, spec, OSStructure.MONOLITHIC, 7, 200_000)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 8 * 1024 * 1024  # 200k events would be ~10x this


def test_replication_validation():
    model = fit_table7("spellcheck-1", OSStructure.MONOLITHIC)
    with pytest.raises(ValueError):
        run_replication(model, get_arch("r3000"),
                        OSStructure.MONOLITHIC, 0, 0)


# ----------------------------------------------------------------------
# sharding + caching runner
# ----------------------------------------------------------------------

def test_shard_seeds_round_robin_covers_all():
    plan = shard_seeds([1, 2, 3, 4, 5], 2)
    assert plan == [[1, 3, 5], [2, 4]]
    assert shard_seeds([1], 4) == [[1]]
    with pytest.raises(ValueError):
        shard_seeds([1], 0)


def test_replication_key_is_sensitive_to_every_field():
    base = ("m" * 8, "s" * 8, "d" * 8, "mach2.5", 0, 100, 1e4)
    key = replication_key(*base)
    assert key == replication_key(*base)
    for i, bump in enumerate(["x" * 8, "x" * 8, "x" * 8, "mach3.0",
                              1, 200, 2e4]):
        changed = list(base)
        changed[i] = bump
        assert replication_key(*changed) != key


def test_runner_reuses_stored_replications(tmp_path):
    store_path = str(tmp_path / "scen.jsonl")
    model = fit_table7("spellcheck-1", OSStructure.MONOLITHIC)
    spec = get_arch("r3000")
    runner = ScenarioRunner(store=store_path)
    first = runner.run(model, spec, OSStructure.MONOLITHIC,
                       seeds=[0, 1], events=2_000)
    assert first.stats.fresh == 2 and first.stats.store_hits == 0

    # a new runner over the same store answers from the WAL
    second = ScenarioRunner(store=store_path).run(
        model, spec, OSStructure.MONOLITHIC, seeds=[0, 1, 2], events=2_000)
    assert second.stats.store_hits == 2 and second.stats.fresh == 1
    assert [r["aggregate_digest"] for r in second.records[:2]] == \
        [r["aggregate_digest"] for r in first.records]
    assert second.stats.reuse_rate == pytest.approx(2 / 3)


def test_runner_results_independent_of_sharding(tmp_path):
    """Two workers, disjoint seed shards, merged WALs == one worker."""
    from repro.explore.store import ResultStore, merge_result_stores

    model = fit_table7("spellcheck-1", OSStructure.MONOLITHIC)
    spec = get_arch("r3000")
    seeds = [0, 1, 2, 3]

    solo = ScenarioRunner(store=str(tmp_path / "solo.jsonl")).run(
        model, spec, OSStructure.MONOLITHIC, seeds, events=1_500)

    shards = shard_seeds(seeds, 2)
    wal_paths = []
    for index, shard in enumerate(shards):
        wal = str(tmp_path / f"worker-{index}.jsonl")
        wal_paths.append(wal)
        ScenarioRunner(store=wal).run(
            model, spec, OSStructure.MONOLITHIC, shard, events=1_500)
    merged = ResultStore(str(tmp_path / "merged.jsonl"))
    report = merge_result_stores(merged, wal_paths)
    assert report["merged"] == len(seeds)
    assert report["conflicts"] == 0

    # the merged store answers every seed with the solo run's digests
    reread = ScenarioRunner(store=merged).run(
        model, spec, OSStructure.MONOLITHIC, seeds, events=1_500)
    assert reread.stats.store_hits == len(seeds)
    assert [r["aggregate_digest"] for r in reread.records] == \
        [r["aggregate_digest"] for r in solo.records]


def test_runner_parallel_matches_serial(tmp_path):
    model = fit_table7("spellcheck-1", OSStructure.MONOLITHIC)
    spec = get_arch("r3000")
    serial = ScenarioRunner().run(model, spec, OSStructure.MONOLITHIC,
                                  seeds=[0, 1, 2], events=1_500)
    parallel = ScenarioRunner(jobs=2).run(
        model, spec, OSStructure.MONOLITHIC, seeds=[0, 1, 2], events=1_500)
    assert [r["aggregate_digest"] for r in parallel.records] == \
        [r["aggregate_digest"] for r in serial.records]
    assert parallel.stats.sweep_mode == "parallel"


def test_runner_rejects_duplicate_seeds():
    """A repeated seed replays an identical stream; counting it again
    would narrow the interval without adding a sample."""
    model = fit_table7("spellcheck-1", OSStructure.MONOLITHIC)
    with pytest.raises(ValueError, match="duplicate scenario seeds 1, 3"):
        ScenarioRunner().run(model, get_arch("r3000"), OSStructure.MONOLITHIC,
                             seeds=[1, 3, 1, 2, 3], events=1_500)


def test_runner_records_lineage(tmp_path):
    from repro.provenance import provenance_enabled, set_provenance_enabled

    store_path = str(tmp_path / "scen.jsonl")
    model = fit_table7("spellcheck-1", OSStructure.MONOLITHIC)
    was_enabled = provenance_enabled()
    set_provenance_enabled(True)
    try:
        result = ScenarioRunner(store=store_path).run(
            model, get_arch("r3000"), OSStructure.MONOLITHIC,
            seeds=[0], events=1_000)
    finally:
        set_provenance_enabled(was_enabled)
    sidecar = store_path + ".lineage"
    assert os.path.exists(sidecar)
    from repro.provenance import LineageStore

    records = LineageStore(sidecar).records()
    kinds = {r.kind for r in records}
    assert {"scenario_model", "scenario"} <= kinds
    scenario = next(r for r in records if r.kind == "scenario")
    assert model.digest in scenario.inputs
    assert scenario.result_digest == result.records[0]["aggregate_digest"]


def test_runner_requires_seeds():
    model = fit_table7("spellcheck-1", OSStructure.MONOLITHIC)
    with pytest.raises(ValueError):
        ScenarioRunner().run(model, get_arch("r3000"),
                             OSStructure.MONOLITHIC, seeds=[], events=10)


def test_runner_emits_metrics():
    from repro import obs

    model = fit_table7("spellcheck-1", OSStructure.MONOLITHIC)
    before = obs.REGISTRY.snapshot()
    obs.enable_metrics()
    try:
        ScenarioRunner().run(model, get_arch("r3000"),
                             OSStructure.MONOLITHIC, seeds=[0], events=1_000)
    finally:
        obs.disable_metrics()
    window = obs.snapshot_diff(before, obs.REGISTRY.snapshot())
    metrics = window["metrics"]
    assert metrics["scenario_replications_total"]["cells"]["source=engine"] == 1
    cells = metrics["scenario_events_total"]["cells"]
    assert sum(cells.values()) == 1_000
