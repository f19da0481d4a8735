"""Metrics registry: types, labels, snapshot/diff/merge, fan-out."""

import json

import pytest

from repro import obs
from repro.core.engine import SweepRunner
from repro.obs.metrics import (
    MetricsRegistry,
    merge_snapshots,
    parse_label_key,
    snapshot_diff,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


# ----------------------------------------------------------------------
# metric types
# ----------------------------------------------------------------------

def test_counter_labels_and_totals(registry):
    c = registry.counter("ops_total", "operations")
    c.inc()
    c.inc(2, arch="sparc")
    c.inc(3, arch="sparc")
    c.inc(4, opclass="LOAD", arch="cvax")
    assert c.value() == 1
    assert c.value(arch="sparc") == 5
    # label order does not matter: keys canonicalize sorted
    assert c.value(arch="cvax", opclass="LOAD") == 4
    assert c.total() == 10


def test_counter_rejects_negative(registry):
    with pytest.raises(ValueError):
        registry.counter("ops_total").inc(-1)


def test_gauge_set_and_add(registry):
    g = registry.gauge("depth")
    g.set(5, queue="run")
    g.add(-2, queue="run")
    assert g.value(queue="run") == 3
    g.set(0.5)
    assert g.value() == 0.5


def test_histogram_buckets_sum_count(registry):
    h = registry.histogram("latency", buckets=(1.0, 10.0))
    for value in (0.5, 5.0, 50.0):
        h.observe(value)
    assert h.count() == 3
    assert h.sum() == pytest.approx(55.5)
    cell = registry.snapshot()["metrics"]["latency"]["cells"][""]
    assert cell["counts"] == [1, 1, 1]  # <=1, <=10, overflow


def test_histogram_validates_buckets(registry):
    with pytest.raises(ValueError):
        registry.histogram("bad", buckets=(10.0, 1.0))
    with pytest.raises(ValueError):
        registry.histogram("empty", buckets=())


def test_get_or_create_and_kind_clash(registry):
    assert registry.counter("x") is registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")
    assert registry.names() == ["x"]


def test_label_key_round_trip():
    c = MetricsRegistry().counter("x")
    c.inc(1, b="2", a="1")
    key = c.label_keys()[0]
    assert key == "a=1,b=2"
    assert parse_label_key(key) == {"a": "1", "b": "2"}
    assert parse_label_key("") == {}


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------

def test_snapshot_is_json_safe_and_detached(registry):
    c = registry.counter("ops_total")
    h = registry.histogram("lat")
    c.inc(3, arch="i860")
    h.observe(0.2)
    snap = registry.snapshot()
    json.dumps(snap)  # must serialize as-is
    snap["metrics"]["ops_total"]["cells"]["arch=i860"] = 999
    snap["metrics"]["lat"]["cells"][""]["count"] = 999
    assert c.value(arch="i860") == 3
    assert h.count() == 1


def test_snapshot_diff_windows_counters(registry):
    c = registry.counter("ops_total")
    c.inc(5, arch="sparc")
    c.inc(2, arch="cvax")
    before = registry.snapshot()
    c.inc(3, arch="sparc")
    diff = snapshot_diff(before, registry.snapshot())
    cells = diff["metrics"]["ops_total"]["cells"]
    assert cells == {"arch=sparc": 3}  # unchanged cvax cell omitted


def test_snapshot_diff_gauges_keep_after_value(registry):
    g = registry.gauge("depth")
    g.set(10)
    before = registry.snapshot()
    g.set(4)
    diff = snapshot_diff(before, registry.snapshot())
    assert diff["metrics"]["depth"]["cells"][""] == 4


def test_snapshot_diff_histograms_subtract(registry):
    h = registry.histogram("lat", buckets=(1.0,))
    h.observe(0.5)
    before = registry.snapshot()
    h.observe(0.5)
    h.observe(5.0)
    cell = snapshot_diff(before, registry.snapshot())["metrics"]["lat"]["cells"][""]
    assert cell["counts"] == [1, 1]
    assert cell["count"] == 2
    assert cell["sum"] == pytest.approx(5.5)


def test_diff_then_merge_round_trip(registry):
    c = registry.counter("ops_total")
    h = registry.histogram("lat")
    c.inc(4, arch="sparc")
    h.observe(0.3, arch="sparc")
    before = registry.snapshot()
    c.inc(6, arch="sparc")
    h.observe(0.7, arch="sparc")
    diff = snapshot_diff(before, registry.snapshot())

    other = MetricsRegistry()
    other.merge(before)
    other.merge(diff)
    assert other.snapshot() == registry.snapshot()


def test_merge_snapshots_adds_counters_last_wins_gauges():
    snaps = []
    for value in (2, 3):
        r = MetricsRegistry()
        r.counter("ops_total").inc(value, arch="i860")
        r.gauge("depth").set(value)
        snaps.append(r.snapshot())
    merged = merge_snapshots(snaps)
    assert merged["metrics"]["ops_total"]["cells"]["arch=i860"] == 5
    assert merged["metrics"]["depth"]["cells"][""] == 3


def test_clear_keeps_handles_valid(registry):
    c = registry.counter("ops_total")
    c.inc(7)
    registry.clear()
    assert c.value() == 0
    c.inc(1)  # the pre-clear handle still feeds the registry
    assert registry.counter("ops_total").value() == 1


# ----------------------------------------------------------------------
# cross-process aggregation under SweepRunner
# ----------------------------------------------------------------------

def _sweep_work(n):
    from repro import obs as _obs

    _obs.REGISTRY.counter("sweep_units_total", "test units").inc(n, src="sweep")
    return n * 2


@pytest.mark.parametrize("parallel", [False, True])
def test_sweep_runner_aggregates_metrics(parallel):
    obs.enable_metrics()
    try:
        before = obs.REGISTRY.snapshot()
        runner = SweepRunner(jobs=2 if parallel else 1)
        results = runner.map(_sweep_work, [1, 2, 3, 4], collect_metrics=True)
        assert results == [2, 4, 6, 8]
        diff = snapshot_diff(before, obs.REGISTRY.snapshot())
        # identical totals whether the sweep forked or ran serial
        assert diff["metrics"]["sweep_units_total"]["cells"]["src=sweep"] == 10
    finally:
        obs.disable_metrics()


def test_sweep_runner_without_collection_leaves_registry_alone():
    before = obs.REGISTRY.snapshot()
    SweepRunner().map(lambda n: n, [1, 2, 3])
    assert obs.REGISTRY.snapshot() == before
