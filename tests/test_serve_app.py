"""Serving-core tests: the disciplines, driven without HTTP.

Everything here exercises :class:`repro.serve.ServeApp` directly so
each contract is tested at its own layer; the wire protocol has its
own tests in ``test_serve_http.py``.
"""

import asyncio
import dataclasses
import random

import pytest

from repro import obs
from repro.analysis.runner import ALL_TABLE_NUMBERS
from repro.arch import ALL_ARCH_NAMES
from repro.serve import ServeApp, ServeConfig, ServeError
from repro.serve import server as server_module
from repro.serve.loadgen import WorkerGate, wait_until
from repro.serve.protocol import ENDPOINTS


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


# ----------------------------------------------------------------------
# the answer memo
# ----------------------------------------------------------------------

#: one request per pure endpoint (every endpoint but explore_frontier).
PURE_REQUESTS = {
    "measure": {"arch": "r3000"},
    "table": {"number": 2},
    "arch_describe": {"name": "sparc"},
}


def distinct_requests():
    """Every distinct nonce-free request validation admits to a pure
    endpoint: one per architecture for measure and arch_describe, one
    per table."""
    return ([("measure", {"arch": a}) for a in ALL_ARCH_NAMES]
            + [("table", {"number": n}) for n in ALL_TABLE_NUMBERS]
            + [("arch_describe", {"name": a}) for a in ALL_ARCH_NAMES])


def count_executions(monkeypatch):
    """Wrap the serving layer's ``execute_one``; returns its call list."""
    calls = []
    real = server_module.execute_one

    def counting(item):
        calls.append(item)
        return real(item)

    monkeypatch.setattr(server_module, "execute_one", counting)
    return calls


def test_every_pure_endpoint_has_a_memo_test_request():
    assert set(PURE_REQUESTS) == {
        name for name, endpoint in ENDPOINTS.items() if endpoint.pure}
    assert not ENDPOINTS["explore_frontier"].pure


@pytest.mark.parametrize("endpoint_name", sorted(PURE_REQUESTS))
def test_repeated_pure_request_is_answered_from_the_memo(endpoint_name,
                                                         monkeypatch):
    calls = count_executions(monkeypatch)
    params = PURE_REQUESTS[endpoint_name]
    app = ServeApp()

    async def body(app):
        first = await app.submit(endpoint_name, dict(params))
        executed = len(calls)
        with obs.capture() as capture:
            repeats = [await app.submit(endpoint_name, dict(params),
                                        request_id=f"memo-{i}")
                       for i in range(5)]
            window = capture.metrics()
            spans = [s for s in capture.spans if s.category == "request"]
        return first, executed, repeats, window, spans

    first, executed, repeats, window, spans = run(closed(app, body))
    assert executed == 1
    assert all(repeat == first for repeat in repeats)
    assert len(calls) == 1, "a repeat reached execute_one"
    assert counter_total(window, "serve_executions_total") == 0
    assert counter_total(window, "serve_batches_total") == 0
    assert counter_total(window, "serve_memo_hits_total") == 5
    # a hit is still a request: counted, timed, and spanned with its id
    requests = window["metrics"]["serve_requests_total"]["cells"]
    assert requests == {f"endpoint={endpoint_name},status=200": 5}
    latency = window["metrics"]["serve_request_latency_ms"]["cells"]
    assert latency[f"endpoint={endpoint_name}"]["count"] == 5
    assert sorted(s.attrs["request_id"] for s in spans) == [
        f"memo-{i}" for i in range(5)]
    assert all(s.attrs["status"] == 200 for s in spans)


def test_nonce_requests_neither_read_nor_fill_the_memo(monkeypatch):
    calls = count_executions(monkeypatch)
    app = ServeApp()

    async def body(app):
        await app.submit("measure", {"arch": "r3000"})
        with obs.capture(enable_spans=False) as capture:
            for _ in range(3):
                await app.submit("measure", {"arch": "r3000", "nonce": 7})
            return capture.metrics()

    window = run(closed(app, body))
    assert len(calls) == 4
    assert counter_total(window, "serve_executions_total") == 3
    assert counter_total(window, "serve_memo_hits_total") == 0
    assert len(app._answers) == 1


def test_explore_frontier_reads_are_never_memoized(tmp_path):
    from repro.explore import ObjectiveSchema, ResultStore

    schema = ObjectiveSchema()
    path = str(tmp_path / "trials.jsonl")

    def append_trial(i):
        ResultStore(path).put(f"trial-{i}", {
            "schema_digest": schema.digest,
            "objectives": {name: float(i + 1) for name in schema.names},
            "arch_name": f"arch-{i}",
            "point": {},
        })

    app = ServeApp()

    async def body(app):
        append_trial(0)
        first = await app.submit("explore_frontier", {"store": path})
        append_trial(1)
        second = await app.submit("explore_frontier", {"store": path})
        return first, second

    first, second = run(closed(app, body))
    assert first["trials"] == 1
    assert second["trials"] == first["trials"] + 1
    assert not app._answers


def test_failures_are_never_memoized(monkeypatch):
    endpoint = ENDPOINTS["measure"]
    failures = [RuntimeError("worker blew up once")]

    def flaky(params):
        if failures:
            raise failures.pop()
        return endpoint.worker(params)

    monkeypatch.setitem(ENDPOINTS, "measure",
                        dataclasses.replace(endpoint, worker=flaky))
    app = ServeApp()

    async def body(app):
        with pytest.raises(ServeError) as failed:
            await app.submit("measure", {"arch": "r3000"})
        with obs.capture(enable_spans=False) as capture:
            retried = await app.submit("measure", {"arch": "r3000"})
            window = capture.metrics()
        return failed.value, retried, window

    failed, retried, window = run(closed(app, body))
    assert failed.status == 500 and failed.code == "internal"
    assert retried["arch"] == "r3000"
    assert counter_total(window, "serve_executions_total") == 1
    assert counter_total(window, "serve_memo_hits_total") == 0


def test_warm_key_keeps_the_deadline_and_drain_errors():
    app = ServeApp()

    async def body(app):
        await app.submit("measure", {"arch": "r3000"})
        with obs.capture(enable_spans=False) as capture:
            with pytest.raises(ServeError) as expired:
                await app.submit("measure", {"arch": "r3000"},
                                 deadline_ms=0.0)
            await app.drain()
            with pytest.raises(ServeError) as draining:
                await app.submit("measure", {"arch": "r3000"})
            window = capture.metrics()
        return expired.value, draining.value, window

    expired, draining, window = run(closed(app, body))
    assert expired.status == 504 and expired.code == "deadline_exceeded"
    assert counter_total(window, "serve_deadline_expired_total") == 1
    assert draining.status == 503 and draining.code == "draining"
    assert counter_total(window, "serve_memo_hits_total") == 0
    assert counter_total(window, "serve_executions_total") == 0


def test_warm_key_keeps_the_default_deadline():
    app = ServeApp(ServeConfig(default_deadline_ms=0.0))

    async def body(app):
        await app.submit("measure", {"arch": "r3000"}, deadline_ms=60_000)
        with pytest.raises(ServeError) as expired:
            await app.submit("measure", {"arch": "r3000"})
        return expired.value

    assert run(closed(app, body)).status == 504


def test_memo_holds_one_entry_per_distinct_request():
    requests = distinct_requests()
    assert len(requests) == 25
    rng = random.Random(21)
    app = ServeApp()

    async def body(app):
        for endpoint, params in requests + requests:
            await app.submit(endpoint, dict(params))
        for _ in range(100):
            endpoint, params = rng.choice(requests)
            await app.submit(endpoint, dict(params))

    with obs.capture(enable_spans=False) as capture:
        run(closed(app, body))
        window = capture.metrics()
    assert len(app._answers) == 25
    assert counter_total(window, "serve_executions_total") == 25
    assert counter_total(window, "serve_memo_hits_total") == 125
