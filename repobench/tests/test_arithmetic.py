"""Tests of the benchmark's own arithmetic.

    python3 -m pytest repobench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402


# -- percentiles ---------------------------------------------------------

@pytest.mark.parametrize("count,q,reportable", [
    (100, 90, True), (99, 90, False),
    (1000, 99, True), (999, 99, False),
    (20, 50, True), (19, 50, False),
])
def test_percentile_needs_ten_samples_beyond(count, q, reportable):
    values = [float(i) for i in range(count)]
    value = stats.reportable_percentile(values, q)
    assert (value is not None) is reportable
    if reportable:
        assert stats.tail_samples(count, q) >= stats.MIN_TAIL_SAMPLES
        assert value == stats.percentile(values, q)


def test_highest_reportable_picks_the_highest_supported():
    values = [float(i) for i in range(200)]
    q, value = stats.highest_reportable(values)
    assert q == 95.0 and value == stats.percentile(values, 95.0)
    assert stats.highest_reportable([1.0] * 5) is None


def test_nearest_rank_percentile():
    assert stats.percentile([5, 1, 4, 2, 3], 50) == 3
    assert stats.percentile([5, 1, 4, 2, 3], 100) == 5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_relative_spread_matches_statistics_quantiles():
    import statistics

    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 12.0, 9.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / q2)


# -- self time -----------------------------------------------------------

def _span(sid, start, end, parent=None, op=None, tid=1, layer="x", name="f"):
    return {"id": sid, "name": name, "layer": layer, "start": start, "end": end,
            "parent": parent, "op": op, "tid": tid, "attrs": None}


def test_self_time_nested_children():
    spans = [_span(1, 0, 10), _span(2, 1, 4, parent=1), _span(3, 2, 3, parent=2),
             _span(4, 5, 7, parent=1)]
    selfs = stats.self_times(spans)
    assert selfs == {1: pytest.approx(5), 2: pytest.approx(2), 3: pytest.approx(1),
                     4: pytest.approx(2)}


def test_self_time_children_on_another_thread_overlap():
    # root on thread 1; two children on worker threads overlap each other
    spans = [_span(1, 0, 10, op="r1", tid=1),
             _span(2, 2, 6, op="r1", tid=2),
             _span(3, 4, 8, op="r1", tid=3)]
    tracer.link_orphans(spans)
    assert spans[1]["parent"] == 1 and spans[2]["parent"] == 1
    selfs = stats.self_times(spans)
    assert selfs[1] == pytest.approx(10 - 6)        # union [2, 8] is covered once
    assert selfs[2] == pytest.approx(4) and selfs[3] == pytest.approx(4)


def test_orphan_links_to_innermost_enclosing_span_of_its_operation():
    spans = [_span(1, 0, 10, op="r1", tid=1, name="http"),
             _span(2, 1, 9, parent=1, op="r1", tid=1, name="submit"),
             _span(3, 3, 5, op="r1", tid=2, name="execute"),
             _span(4, 3, 5, op="r2", tid=3, name="other")]
    tracer.link_orphans(spans)
    assert spans[2]["parent"] == 2
    assert spans[3]["parent"] is None    # no span of its own operation encloses it


def test_layer_rows_add_up_to_the_operation():
    spans = [_span(1, 0, 10, layer=tracer.UNATTRIBUTED, name="operation"),
             _span(2, 1, 4, parent=1, layer="core.engine"),
             _span(3, 2, 3, parent=2, layer="store"),
             _span(4, 5, 9, op="x", tid=2, layer="serve")]
    spans[3]["parent"] = 1
    children = tracer.annotate(spans)
    rows = tracer.layer_rows(spans[0], children, outside_s=0.5)
    assert sum(rows.values()) == pytest.approx(10.5)
    assert rows == {tracer.UNATTRIBUTED: pytest.approx(3.5), "core.engine": pytest.approx(2),
                    "store": pytest.approx(1), "serve": pytest.approx(4)}


@pytest.mark.parametrize("ops", [20, 49, 91, 98])
def test_count_per_operation_is_exact_for_any_number_of_operations(ops):
    # 24 executor runs in every operation; a traced run's operation count
    # varies with host speed, and the count per operation must not
    spans = [_span(i, i, i + 0.5, name="Executor.run") for i in range(24 * ops)]
    for span in spans:
        span["attrs"] = {"key": span["id"] % 24}
    metrics = layers.common_metrics(layers.Spans(spans), ops)
    assert metrics["isa.executor.runs"] == 24.0


# -- host-speed correction -----------------------------------------------

@pytest.mark.parametrize("speed", [1.0, 1.4, 0.7])
def test_same_work_at_two_host_speeds_corrects_to_one_value(speed):
    work_s, ref_work_ms, nominal = 0.120, 6.0, 6.0
    raw = work_s * speed            # a slower host stretches both by the same factor
    ref = ref_work_ms * speed
    assert stats.corrected(raw, ref, nominal) == pytest.approx(work_s)


def test_correction_rejects_nonpositive_reference():
    with pytest.raises(ValueError):
        stats.corrected(1.0, 0.0, 6.0)


# -- the catalogue matches BENCHMARK.json --------------------------------

def test_benchmark_json_lists_the_catalogue():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.CATALOGUE)
