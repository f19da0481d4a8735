"""Load-generator tests: statistics, determinism, and the bench snapshot."""

import asyncio
import json

import pytest

from repro.serve.loadgen import (
    BENCH_SCHEMA_VERSION,
    latency_summary,
    quantile,
    request_mix,
    run_bench,
    write_snapshot,
)
from repro.serve.protocol import ENDPOINTS
from repro.serve.server import HttpServer, ServeConfig


# -- statistics ---------------------------------------------------------

def test_quantile_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert quantile(values, 0.0) == 1.0
    assert quantile(values, 0.5) == 3.0
    assert quantile(values, 0.99) == 5.0
    assert quantile(values, 1.0) == 5.0
    assert quantile([7.0], 0.5) == 7.0


def test_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)
    with pytest.raises(ValueError):
        quantile([1.0], -0.1)


def test_latency_summary_shape():
    summary = latency_summary([1.0, 2.0, 3.0, 4.0])
    assert summary["count"] == 4
    assert summary["p50"] == 2.0
    assert summary["mean"] == 2.5
    assert summary["max"] == 4.0
    assert latency_summary([]) == {"count": 0}


def test_latency_summary_reports_max_not_p99():
    """Below 100 samples the nearest-rank p99 is the max, so the summary
    names it ``max`` and has no ``p99`` key."""
    samples = [float((i * 37) % 64) + 0.5 for i in range(64)]
    summary = latency_summary(samples)
    assert summary["count"] == 64
    assert "p99" not in summary
    assert summary["max"] == max(samples) == 63.5
    assert quantile(samples, 0.99) == summary["max"]


# -- request mix --------------------------------------------------------

def test_request_mix_is_deterministic_per_seed():
    assert request_mix(32, seed=7) == request_mix(32, seed=7)
    assert request_mix(32, seed=7) != request_mix(32, seed=8)


def test_request_mix_targets_real_endpoints_with_valid_params():
    for endpoint, params in request_mix(64, seed=3):
        assert endpoint in ENDPOINTS
        ENDPOINTS[endpoint].validate(params)  # must not raise


def test_request_mix_unique_stamps_distinct_nonces():
    mix = request_mix(16, seed=0, unique=True)
    nonces = [params["nonce"] for _, params in mix]
    assert len(set(nonces)) == len(mix)
    plain = request_mix(16, seed=0)
    assert all("nonce" not in params for _, params in plain)


# -- the bench ----------------------------------------------------------

def test_run_bench_quick_passes_all_checks(tmp_path):
    snapshot = asyncio.run(run_bench(quick=True, seed=0))
    failed = [name for name, ok in snapshot["checks"].items() if not ok]
    assert not failed, f"bench checks failed: {failed}"
    assert snapshot["schema"] == BENCH_SCHEMA_VERSION
    assert snapshot["quick"] is True

    coalesce = snapshot["scenarios"]["coalesce"]
    assert coalesce["executions"] == 1
    assert coalesce["coalesced"] == coalesce["requests"] - 1
    assert coalesce["ok"] == coalesce["requests"]
    assert snapshot["scenarios"]["shed"]["unanswered"] == 0

    load = snapshot["scenarios"]["load"]
    assert load["errors"] == 0
    assert load["closed"]["latency_ms"]["max"] >= \
        load["closed"]["latency_ms"]["p50"]

    out = tmp_path / "BENCH_serve.json"
    write_snapshot(snapshot, str(out))
    assert json.loads(out.read_text(encoding="utf-8")) == snapshot


def test_closed_loop_against_live_server_is_clean():
    from repro.serve.loadgen import closed_loop

    async def harness():
        server = HttpServer(config=ServeConfig(
            host="127.0.0.1", port=0, max_pending=64))
        host, port = await server.start()
        try:
            return await closed_loop(host, port, request_mix(12, seed=1),
                                     clients=3)
        finally:
            await server.shutdown()

    stats = asyncio.run(harness())
    assert stats.issued == 12
    assert stats.ok == 12, f"failures: {stats.by_status}"
    assert stats.throughput_rps > 0
    summary = stats.summary()
    assert summary["latency_ms"]["count"] == 12
    assert summary["latency_ms"]["p50"] > 0


def test_open_loop_against_live_server_is_clean():
    from repro.serve.loadgen import open_loop

    async def harness():
        server = HttpServer(config=ServeConfig(
            host="127.0.0.1", port=0, max_pending=64))
        host, port = await server.start()
        try:
            return await open_loop(host, port, request_mix(8, seed=2),
                                   rate_rps=400.0)
        finally:
            await server.shutdown()

    stats = asyncio.run(harness())
    assert stats.issued == 8
    assert stats.ok == 8, f"failures: {stats.by_status}"
    assert stats.discipline == "open"


def test_open_loop_rejects_nonpositive_rate():
    from repro.serve.loadgen import open_loop

    with pytest.raises(ValueError):
        asyncio.run(open_loop("127.0.0.1", 1, request_mix(1), rate_rps=0.0))
