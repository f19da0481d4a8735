"""Wire-protocol tests: a real server on an ephemeral port.

Raw-socket requests test the HTTP parsing edges (malformed request
lines, bad Content-Length); :class:`repro.serve.HttpClient` drives the
happy paths and the typed-error replies.
"""

import asyncio
import json
import signal

from repro import obs
from repro.analysis.runner import ALL_TABLE_NUMBERS
from repro.arch import ALL_ARCH_NAMES
from repro.serve import HttpClient, HttpServer, ServeConfig
from repro.serve import server as server_module
from repro.serve.loadgen import WorkerGate, wait_until
from repro.serve.protocol import ENDPOINTS


def serve_config(**overrides):
    defaults = dict(host="127.0.0.1", port=0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def with_server(body, **config_overrides):
    """Start a server, run ``await body(server, client)``, tear down."""

    async def harness():
        server = HttpServer(config=serve_config(**config_overrides))
        host, port = await server.start()
        client = HttpClient(host, port)
        try:
            return await body(server, client)
        finally:
            await client.close()
            await server.shutdown()

    return asyncio.run(harness())


async def raw_exchange(host, port, payload: bytes) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        chunks = []
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def test_healthz_reports_status_and_routes():
    async def body(server, client):
        return await client.request("measure", {"arch": "r3000"}), \
            await raw_exchange(server.host, server.port,
                               b"GET /healthz HTTP/1.1\r\n"
                               b"Host: x\r\nConnection: close\r\n\r\n")

    reply, raw = with_server(body)
    assert reply.status == 200
    assert reply.body["arch"] == "r3000"
    assert b"200 OK" in raw
    health = json.loads(raw.split(b"\r\n\r\n", 1)[1])
    assert health["status"] == "ok"
    assert "/v1/measure" in health["endpoints"]
    assert health["pending"] == 0


def test_post_measure_and_table_round_trip():
    async def body(server, client):
        measure = await client.request("measure", {"arch": "sparc"})
        table = await client.request("table", {"number": 1})
        return measure, table

    measure, table = with_server(body)
    assert measure.status == 200
    assert measure.body["times_us"]["null_syscall"] > 0
    assert table.status == 200
    assert "Table 1" in table.body["text"]


def test_malformed_json_body_is_typed_400():
    async def body(server, client):
        raw = (b"POST /v1/measure HTTP/1.1\r\nHost: x\r\n"
               b"Content-Type: application/json\r\nContent-Length: 8\r\n"
               b"Connection: close\r\n\r\n{not json")[:-1]
        return await raw_exchange(server.host, server.port, raw)

    raw = with_server(body)
    assert b"400 Bad Request" in raw
    payload = json.loads(raw.split(b"\r\n\r\n", 1)[1])
    assert payload["error"] == "bad_request"
    assert "JSON" in payload["message"]


def test_invalid_params_are_typed_400():
    async def body(server, client):
        return await client.request("measure", {"arch": "nonexistent"})

    reply = with_server(body)
    assert reply.status == 400
    assert reply.body["error"] == "bad_request"
    assert "nonexistent" in reply.body["message"]


def test_unknown_path_404_and_wrong_method_405():
    async def body(server, client):
        missing = await raw_exchange(
            server.host, server.port,
            b"POST /v1/nope HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 2\r\nConnection: close\r\n\r\n{}")
        wrong = await raw_exchange(
            server.host, server.port,
            b"GET /v1/measure HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\n\r\n")
        return missing, wrong

    missing, wrong = with_server(body)
    assert b"404 Not Found" in missing
    assert json.loads(missing.split(b"\r\n\r\n", 1)[1])["error"] == "not_found"
    assert b"405 Method Not Allowed" in wrong


def test_malformed_request_line_and_bad_length_are_400s():
    async def body(server, client):
        garbage = await raw_exchange(server.host, server.port,
                                     b"NONSENSE\r\n\r\n")
        bad_length = await raw_exchange(
            server.host, server.port,
            b"POST /v1/measure HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: banana\r\n\r\n")
        return garbage, bad_length

    garbage, bad_length = with_server(body)
    assert b"400 Bad Request" in garbage
    assert b"400 Bad Request" in bad_length


def test_deadline_header_zero_is_504():
    async def body(server, client):
        return await client.request("measure", {"arch": "r3000"},
                                    deadline_ms=0.0)

    reply = with_server(body)
    assert reply.status == 504
    assert reply.body["error"] == "deadline_exceeded"


def test_deadline_in_body_is_honored_and_stripped():
    async def body(server, client):
        # A generous body deadline: must not 400 on the extra field,
        # must complete normally.
        return await client.request(
            "measure", {"arch": "r3000", "deadline_ms": 60_000})

    reply = with_server(body)
    assert reply.status == 200
    assert reply.body["arch"] == "r3000"


def test_shed_reply_carries_retry_after_header():
    async def body(server, client):
        admission = server.app.admission
        clients = [HttpClient(server.host, server.port) for _ in range(6)]
        with WorkerGate(server.app):
            tasks = [
                asyncio.ensure_future(
                    burst_client.request(
                        "measure", {"arch": "r3000", "nonce": i}))
                for i, burst_client in enumerate(clients)
            ]
            await wait_until(lambda: admission.pending + sum(
                t.done() for t in tasks) == 6)
        replies = await asyncio.gather(*tasks)
        for burst_client in clients:
            await burst_client.close()
        return replies

    replies = with_server(body, max_pending=1, retry_after_s=0.5)
    served = [r for r in replies if r.status == 200]
    shed = [r for r in replies if r.status == 429]
    assert len(served) + len(shed) == 6
    assert shed, "burst past max_pending=1 must shed"
    for reply in shed:
        assert reply.body["error"] == "overloaded"
        assert reply.body["retry_after_s"] == 0.5


def test_metrics_endpoint_serves_prometheus_text():
    from repro import obs

    async def body(server, client):
        await client.request("measure", {"arch": "r3000"})
        return await raw_exchange(server.host, server.port,
                                  b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
                                  b"Connection: close\r\n\r\n")

    with obs.capture(enable_spans=False):
        raw = with_server(body)
    assert b"200 OK" in raw
    assert b"text/plain" in raw
    assert b"serve_requests_total" in raw
    assert b'endpoint="measure"' in raw


def test_graceful_drain_over_http_answers_everyone():
    async def harness():
        server = HttpServer(config=serve_config(max_pending=32))
        host, port = await server.start()
        app = server.app
        clients = [HttpClient(host, port) for _ in range(5)]
        with WorkerGate(app):  # requests are queued behind held workers
            inflight = [
                asyncio.ensure_future(
                    client.request("measure", {"arch": "i860", "nonce": i}))
                for i, client in enumerate(clients)
            ]
            await wait_until(lambda: app.admission.pending == 5)
            shutdown = asyncio.ensure_future(server.shutdown())
            await wait_until(lambda: app.draining)
        await shutdown
        replies = await asyncio.gather(*inflight)
        refused = False
        try:
            await asyncio.open_connection(host, port)
        except OSError:
            refused = True
        for client in clients:
            await client.close()
        return replies, refused

    replies, refused = asyncio.run(harness())
    assert all(r.status == 200 for r in replies), (
        "an admitted request was dropped during drain")
    assert all(r.body["arch"] == "i860" for r in replies)
    assert refused, "listener still accepting after shutdown"


def test_keep_alive_reuses_one_connection():
    async def body(server, client):
        first = await client.request("table", {"number": 1})
        writer_before = client._writer
        second = await client.request("table", {"number": 2})
        return first, second, writer_before is client._writer

    first, second, reused = with_server(body)
    assert first.status == 200 and second.status == 200
    assert reused, "keep-alive connection was not reused"


def test_warm_reply_bytes_equal_cold_reply_bytes():
    requests = ([("measure", {"arch": a}) for a in ALL_ARCH_NAMES]
                + [("table", {"number": n}) for n in ALL_TABLE_NUMBERS]
                + [("arch_describe", {"name": a}) for a in ALL_ARCH_NAMES])

    async def body(server, client):
        async def post(endpoint, params):
            data = json.dumps(params).encode("utf-8")
            raw = await raw_exchange(
                server.host, server.port,
                (f"POST {ENDPOINTS[endpoint].path} HTTP/1.1\r\nHost: x\r\n"
                 f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n"
                 ).encode("latin-1") + data)
            head, _, reply = raw.partition(b"\r\n\r\n")
            return head.split(b"\r\n", 1)[0], reply

        cold = [await post(e, p) for e, p in requests]
        warm = [await post(e, p) for e, p in requests]
        return cold, warm

    with obs.capture(enable_spans=False) as capture:
        cold, warm = with_server(body)
        hits = capture.metrics()["metrics"]["serve_memo_hits_total"]["cells"]
    assert len(requests) == 25
    for request, cold_reply, warm_reply in zip(requests, cold, warm):
        assert cold_reply[0].endswith(b"200 OK"), request
        assert warm_reply == cold_reply, request
    assert sum(hits.values()) == 25


def test_serve_forever_handles_sigterm_before_announcing(monkeypatch):
    """`repro serve run` prints its listening line only once SIGTERM
    drains it, so a client that signals on that line never meets the
    default action, which would kill the server undrained."""
    monkeypatch.setattr(obs.OBS_STATE, "metrics_on", obs.OBS_STATE.metrics_on)
    default = signal.getsignal(signal.SIGTERM)
    lines = []
    handled_when_announced = []

    def signal_if_handled():
        # never raise SIGTERM while the default (killing) action is in place
        if signal.getsignal(signal.SIGTERM) is not default:
            signal.raise_signal(signal.SIGTERM)

    def record(*args, **kwargs):
        lines.append(" ".join(str(a) for a in args))
        if "listening on http://" in lines[-1]:
            handled_when_announced.append(
                signal.getsignal(signal.SIGTERM) is not default)
            asyncio.get_running_loop().call_soon(signal_if_handled)

    monkeypatch.setattr(server_module, "print", record, raising=False)
    try:
        asyncio.run(asyncio.wait_for(
            server_module.serve_forever(serve_config()), timeout=60))
    finally:
        signal.signal(signal.SIGTERM, default)
    assert handled_when_announced == [True]
    assert lines[-1] == "drained; all admitted requests completed."
