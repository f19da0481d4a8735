"""Serving-core tests: the disciplines, driven without HTTP.

Everything here exercises :class:`repro.serve.ServeApp` directly so
each contract is tested at its own layer; the wire protocol has its
own tests in ``test_serve_http.py``.
"""

import asyncio

import pytest

from repro import obs
from repro.serve import ServeApp, ServeConfig, ServeError
from repro.serve.loadgen import WorkerGate, wait_until


def run(coro):
    return asyncio.run(coro)


def counter_total(window, name):
    entry = window.get("metrics", {}).get(name)
    return sum(entry["cells"].values()) if entry else 0.0


async def closed(app, body):
    try:
        return await body(app)
    finally:
        await app.aclose()


def test_identical_concurrent_requests_coalesce_to_one_execution():
    app = ServeApp(ServeConfig(max_pending=16))

    async def body(app):
        with WorkerGate(app):
            tasks = [asyncio.ensure_future(
                app.submit("measure", {"arch": "r3000"})) for _ in range(6)]
            await wait_until(lambda: app.flights.total_followers == 5)
        return await asyncio.gather(*tasks)

    with obs.capture(enable_spans=False) as capture:
        results = run(closed(app, body))
        window = capture.metrics()
    assert all(r == results[0] for r in results)
    assert counter_total(window, "serve_executions_total") == 1
    assert counter_total(window, "serve_coalesced_total") == 5
    assert app.flights.total_leaders == 1
    assert app.flights.total_followers == 5
    assert len(app.flights) == 0, "flight table must empty after completion"


def test_distinct_requests_do_not_coalesce():
    app = ServeApp(ServeConfig(max_pending=16))

    async def body(app):
        return await asyncio.gather(
            app.submit("measure", {"arch": "r3000"}),
            app.submit("measure", {"arch": "sparc"}))

    with obs.capture(enable_spans=False) as capture:
        r3000, sparc = run(closed(app, body))
        window = capture.metrics()
    assert r3000["arch"] == "r3000" and sparc["arch"] == "sparc"
    assert counter_total(window, "serve_executions_total") == 2
    assert counter_total(window, "serve_coalesced_total") == 0


def test_batch_collects_compatible_requests_into_one_dispatch():
    app = ServeApp(ServeConfig(max_batch=8, max_pending=16))

    async def body(app):
        return await asyncio.gather(
            *(app.submit("measure", {"arch": "r3000", "nonce": i})
              for i in range(4)))

    with obs.capture(enable_spans=False) as capture:
        results = run(closed(app, body))
        window = capture.metrics()
    assert len(results) == 4
    assert counter_total(window, "serve_batches_total") == 1
    assert counter_total(window, "serve_executions_total") == 4


def test_same_turn_requests_split_at_max_batch():
    app = ServeApp(ServeConfig(max_batch=2, max_pending=16))

    async def body(app):
        return await asyncio.wait_for(
            asyncio.gather(
                *(app.submit("measure", {"arch": "r3000", "nonce": i})
                  for i in range(5))),
            timeout=30.0)

    with obs.capture(enable_spans=False) as capture:
        results = run(closed(app, body))
        window = capture.metrics()
    assert len(results) == 5 and all(r["arch"] == "r3000" for r in results)
    # two full batches flush at once, the remainder on the next turn
    assert counter_total(window, "serve_batches_total") == 3


def test_deadline_expired_before_dispatch_is_a_typed_504():
    app = ServeApp(ServeConfig(max_pending=16))

    async def body(app):
        with pytest.raises(ServeError) as excinfo:
            await app.submit("measure", {"arch": "r3000"}, deadline_ms=0.0)
        return excinfo.value

    with obs.capture(enable_spans=False) as capture:
        err = run(closed(app, body))
        window = capture.metrics()
    assert err.status == 504
    assert err.code == "deadline_exceeded"
    assert counter_total(window, "serve_deadline_expired_total") == 1
    assert counter_total(window, "serve_executions_total") == 0


def test_default_deadline_from_config_applies():
    app = ServeApp(ServeConfig(max_pending=16, default_deadline_ms=0.0))

    async def body(app):
        with pytest.raises(ServeError) as excinfo:
            await app.submit("measure", {"arch": "r3000"})
        return excinfo.value

    assert run(closed(app, body)).code == "deadline_exceeded"


def test_queue_full_sheds_with_typed_429():
    app = ServeApp(ServeConfig(max_pending=1, retry_after_s=0.25))

    async def body(app):
        with WorkerGate(app):
            tasks = [asyncio.ensure_future(
                app.submit("measure", {"arch": "r3000", "nonce": i}))
                for i in range(4)]
            await wait_until(lambda: app.admission.pending + sum(
                t.done() for t in tasks) == 4)
        return await asyncio.gather(*tasks, return_exceptions=True)

    with obs.capture(enable_spans=False) as capture:
        outcomes = run(closed(app, body))
        window = capture.metrics()
    served = [o for o in outcomes if isinstance(o, dict)]
    shed = [o for o in outcomes if isinstance(o, ServeError)]
    assert len(served) == 1
    assert len(shed) == 3
    for err in shed:
        assert err.status == 429
        assert err.code == "overloaded"
        assert err.retry_after_s == 0.25
    assert counter_total(window, "serve_shed_total") == 3
    assert app.admission.peak_pending <= 1


def test_shed_leaders_fail_their_followers_too():
    app = ServeApp(ServeConfig(max_pending=1))

    async def body(app):
        # nonce=0 twice: the second is a follower of a shed leader.
        with WorkerGate(app):
            tasks = [asyncio.ensure_future(app.submit("measure", params))
                     for params in ({"arch": "r3000", "nonce": "occupier"},
                                    {"arch": "r3000", "nonce": 0},
                                    {"arch": "r3000", "nonce": 0})]
            await wait_until(lambda: app.admission.pending + sum(
                t.done() for t in tasks) == 3)
        return await asyncio.gather(*tasks, return_exceptions=True)

    outcomes = run(closed(app, body))
    assert isinstance(outcomes[0], dict)
    assert all(isinstance(o, ServeError) and o.status == 429
               for o in outcomes[1:])


def test_drain_completes_admitted_and_refuses_new():
    app = ServeApp(ServeConfig(max_pending=16))

    async def body(app):
        with WorkerGate(app):  # requests sit queued behind held workers
            pending = [
                asyncio.ensure_future(
                    app.submit("measure", {"arch": "sparc", "nonce": i}))
                for i in range(3)
            ]
            await wait_until(lambda: app.admission.pending == 3)
            assert app.admission.pending == 3
            drain = asyncio.ensure_future(app.drain())
            await wait_until(lambda: app.draining)
        await drain
        results = await asyncio.gather(*pending)
        with pytest.raises(ServeError) as excinfo:
            await app.submit("measure", {"arch": "sparc"})
        return results, excinfo.value

    results, refusal = run(closed(app, body))
    assert len(results) == 3 and all(r["arch"] == "sparc" for r in results)
    assert refusal.status == 503
    assert refusal.code == "draining"
    assert app.admission.pending == 0


def test_unknown_endpoint_and_invalid_params_are_400s():
    app = ServeApp()

    async def body(app):
        with pytest.raises(ServeError) as unknown:
            await app.submit("nope", {})
        with pytest.raises(ServeError) as invalid:
            await app.submit("table", {"number": 99})
        return unknown.value, invalid.value

    unknown, invalid = run(closed(app, body))
    assert unknown.status == 400 and "unknown endpoint" in unknown.message
    assert invalid.status == 400 and "choose 1-7" in invalid.message


def test_per_request_spans_are_emitted():
    app = ServeApp()

    async def body(app):
        await app.submit("measure", {"arch": "r3000"})
        await app.submit("table", {"number": 1})

    with obs.capture() as capture:
        run(closed(app, body))
        request_spans = [s for s in capture.spans if s.category == "request"]
    names = sorted(s.name for s in request_spans)
    assert names == ["request:measure", "request:table"]
    for span in request_spans:
        assert span.track == "serve"
        assert span.attrs["status"] == 200
        assert span.duration_us > 0


def test_latency_histogram_and_request_counter_record_status():
    app = ServeApp()

    async def body(app):
        await app.submit("measure", {"arch": "r3000"})
        with pytest.raises(ServeError):
            await app.submit("table", {"number": 99})

    with obs.capture(enable_spans=False) as capture:
        run(closed(app, body))
        window = capture.metrics()
    requests = window["metrics"]["serve_requests_total"]["cells"]
    assert requests.get("endpoint=measure,status=200") == 1
    assert requests.get("endpoint=table,status=400") == 1
    latency = window["metrics"]["serve_request_latency_ms"]
    assert latency["cells"]["endpoint=measure"]["count"] == 1
