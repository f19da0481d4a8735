"""Serving-layer benchmarks: the discipline contracts under load.

Each scenario runs a real asyncio HTTP server on an ephemeral port and
drives it over the wire with the deterministic load generator; the
assertions pin the acceptance contracts of ISSUE 5:

* N identical concurrent requests perform exactly one engine
  execution (coalesce counter = N-1);
* the admission queue sheds with typed 429s rather than growing past
  its bound (peak pending <= max_pending, every request answered);
* graceful drain completes every admitted request — zero silently
  dropped — and refuses work afterwards;
* the closed-loop run is error-free and reports p50/p99 latency.
"""

import asyncio

from repro.serve.loadgen import (
    scenario_coalesce,
    scenario_drain,
    scenario_load,
    scenario_shed,
)


def bench_serve_coalesce(show):
    result = asyncio.run(scenario_coalesce(n=8))
    show("Serve: in-flight request coalescing",
         f"{result['requests']} identical concurrent requests -> "
         f"{result['executions']} execution(s), "
         f"{result['coalesced']} coalesced "
         f"(rate {result['coalesce_rate']:.3f})")
    assert result["ok"] == result["requests"], "a coalesced request failed"
    assert result["executions"] == 1, (
        f"identical concurrent requests ran {result['executions']} times")
    assert result["coalesced"] == result["requests"] - 1, (
        f"coalesce counter {result['coalesced']} != N-1")
    assert result["identical_payloads"], "coalesced replies diverged"


def bench_serve_shed(show):
    result = asyncio.run(scenario_shed(burst=12, max_pending=4))
    show("Serve: admission control",
         f"burst {result['burst']} vs bound {result['max_pending']}: "
         f"{result['ok']} served, {result['shed']} shed, "
         f"peak pending {result['peak_pending']}")
    assert result["peak_pending"] <= result["max_pending"], (
        "queue grew past the admission bound")
    assert result["shed"] > 0, "overload burst was not shed"
    assert result["typed_replies"], "shed replies were not typed 429s"
    assert result["accounted"] and result["unanswered"] == 0, (
        "a burst request went unanswered")


def bench_serve_drain(show):
    result = asyncio.run(scenario_drain(inflight=8))
    show("Serve: graceful drain",
         f"{result['issued']} issued, {result['pending_at_drain']} pending "
         f"at drain -> {result['completed']} completed + "
         f"{result['refused']} refused, {result['unanswered']} unanswered")
    assert result["unanswered"] == 0, "a request was silently dropped"
    assert result["completed"] + result["refused"] == result["issued"]
    assert result["post_drain_refused"], "server accepted work after drain"


def bench_serve_closed_loop(show):
    result = asyncio.run(scenario_load(requests=32, clients=4, seed=0,
                                       open_requests=16))
    closed = result["closed"]
    show("Serve: closed- and open-loop load",
         f"closed: {closed['throughput_rps']} req/s, "
         f"p50 {closed['latency_ms']['p50']} ms, "
         f"p99 {closed['latency_ms']['p99']} ms; "
         f"shed rate {result['shed_rate']:.3f}")
    assert result["errors"] == 0, "load run saw unexplained failures"
    assert closed["latency_ms"]["p50"] > 0
    assert closed["latency_ms"]["p99"] >= closed["latency_ms"]["p50"]
    assert closed["throughput_rps"] > 0
