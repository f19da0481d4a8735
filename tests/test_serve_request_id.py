"""End-to-end trace correlation through the serving layer.

The contract under test: every HTTP reply names a request ID — the
client's when it sent a well-formed one, a fresh one otherwise; the ID
lands on the request span, error replies (deadline-expired, shed)
included; the execution and table records a request produces name it,
and later requests that reuse them do not; answering a request keeps
no per-request state behind; and the metrics endpoint exposes the
provenance and fallback counters from the very first scrape.
"""

import asyncio
import gc
import json
import re
import tracemalloc

from repro import obs
from repro.core.engine import ExperimentEngine, default_engine, set_default_engine
from repro.analysis.runner import render_table
from repro.provenance import (
    PROVENANCE,
    provenance_enabled,
    reset_request_id,
    set_provenance_enabled,
    set_request_id,
)
from repro.serve import (
    HttpClient,
    HttpServer,
    ServeApp,
    ServeConfig,
    ServeError,
    execute_one,
)
from repro.serve.loadgen import WorkerGate, wait_until


def serve_config(**overrides):
    defaults = dict(host="127.0.0.1", port=0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def with_server(body, **config_overrides):
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


async def raw_post(host, port, path, body=b"{}", extra_headers=()):
    """One raw POST; returns (status_line, headers dict, body bytes)."""
    lines = [f"POST {path} HTTP/1.1", "Host: x",
             "Content-Type: application/json",
             f"Content-Length: {len(body)}", "Connection: close"]
    lines.extend(extra_headers)
    payload = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        raw = b""
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                break
            raw += chunk
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, rest = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status_line, headers, rest


# ----------------------------------------------------------------------
# the ID on the wire
# ----------------------------------------------------------------------

def test_server_assigns_request_id_when_client_sends_none():
    async def body(server, client):
        return await raw_post(server.host, server.port, "/v1/measure",
                              b'{"arch": "r3000"}')

    status_line, headers, _ = with_server(body)
    assert "200" in status_line
    assert re.fullmatch(r"[0-9a-f]{16}", headers["x-request-id"])


def test_well_formed_client_request_id_is_echoed():
    async def body(server, client):
        return await raw_post(server.host, server.port, "/v1/measure",
                              b'{"arch": "r3000"}',
                              ["X-Request-Id: trace-me-42"])

    _, headers, _ = with_server(body)
    assert headers["x-request-id"] == "trace-me-42"


def test_ill_formed_client_request_id_is_replaced():
    async def body(server, client):
        return await raw_post(server.host, server.port, "/v1/measure",
                              b'{"arch": "r3000"}',
                              ["X-Request-Id: spaces are not allowed"])

    _, headers, _ = with_server(body)
    assert headers["x-request-id"] != "spaces are not allowed"
    assert re.fullmatch(r"[0-9a-f]{16}", headers["x-request-id"])


# ----------------------------------------------------------------------
# the ID in spans and lineage
# ----------------------------------------------------------------------

def test_request_id_lands_on_request_span():
    async def body(server, client):
        return await raw_post(server.host, server.port, "/v1/measure",
                              b'{"arch": "r3000"}',
                              ["X-Request-Id: corr-1"])

    with obs.capture() as capture:
        status_line, _, _ = with_server(body)
        spans = [s for s in capture.spans if s.category == "request"]
    assert "200" in status_line
    assert any(s.attrs.get("request_id") == "corr-1" for s in spans)


def test_expired_deadline_still_closes_span_with_its_id():
    async def body(server, client):
        return await raw_post(server.host, server.port, "/v1/measure",
                              b'{"arch": "r3000"}',
                              ["X-Request-Id: corr-dead",
                               "X-Deadline-Ms: 0.0"])

    with obs.capture() as capture:
        status_line, headers, _ = with_server(body)
        spans = [s for s in capture.spans if s.category == "request"]
    assert "504" in status_line
    assert headers["x-request-id"] == "corr-dead"
    dead = [s for s in spans if s.attrs.get("request_id") == "corr-dead"]
    assert len(dead) == 1 and dead[0].attrs["status"] == 504


def test_shed_request_still_closes_span_with_its_id():
    app = ServeApp(ServeConfig(max_pending=1))

    async def body():
        with WorkerGate(app):
            tasks = [asyncio.ensure_future(
                app.submit("measure", {"arch": "r3000", "nonce": i},
                           request_id=f"corr-shed-{i}")) for i in range(6)]
            await wait_until(lambda: app.admission.pending + sum(
                t.done() for t in tasks) == 6)
        done = await asyncio.gather(*tasks, return_exceptions=True)
        await app.aclose()
        return done

    with obs.capture() as capture:
        done = asyncio.run(body())
        spans = [s for s in capture.spans if s.category == "request"]
    shed = [f"corr-shed-{i}" for i, e in enumerate(done)
            if isinstance(e, ServeError) and e.status == 429]
    assert shed, "burst past max_pending=1 must shed"
    shed_spans = sorted(s.attrs["request_id"] for s in spans
                        if s.attrs.get("status") == 429)
    assert shed_spans == sorted(shed)


def serve_sequentially(request_ids, arch="r3000"):
    """Answer one measure request per id, in order, on one ServeApp."""
    app = ServeApp()

    async def body():
        try:
            for request_id in request_ids:
                await app.submit("measure", {"arch": arch},
                                 request_id=request_id)
        finally:
            await app.aclose()

    asyncio.run(body())


def test_execution_record_names_its_producing_request():
    previous = default_engine()
    set_default_engine(ExperimentEngine())  # the first request runs cold
    try:
        serve_sequentially(["produce-1", "reuse-2"], arch="sparc")
        # a warm hit on this thread delivers the entry's recorded chain
        with PROVENANCE.collect() as records:
            execute_one(("measure", {"arch": "sparc"}, "reuse-3"))
    finally:
        set_default_engine(previous)
    executions = [r for r in records if r.kind == "execution"]
    assert executions
    assert {r.request_id for r in executions} == {"produce-1"}


def test_table_record_names_its_producing_request(tmp_path):
    engine = ExperimentEngine(disk_cache_dir=str(tmp_path))
    for request_id in ("t-first", "t-second", "t-third", "t-fourth"):
        token = set_request_id(request_id)
        try:
            render_table(1, engine=engine)
        finally:
            reset_request_id(token)
    # warm hits re-record the producing render's record: nothing to append
    (line,) = (tmp_path / "lineage.jsonl").read_text().splitlines()
    table = json.loads(line)
    assert table["kind"] == "table"
    assert table["request_id"] == "t-first"


def test_execute_one_success_envelope_is_value_only():
    outcome = execute_one(("measure", {"arch": "r3000"}, "envelope-1"))
    assert outcome.keys() == {"ok", "value"}
    assert outcome["ok"] is True
    assert outcome["value"]["arch"] == "r3000"


def test_warm_requests_leave_no_heap_behind():
    """Answering a warm request keeps no per-request state: 500 of them,
    each with a fresh id, grow the traced heap by a few KB in all."""
    was_enabled = provenance_enabled()
    set_provenance_enabled(True)
    app = ServeApp()

    async def body():
        try:
            for i in range(20):
                await app.submit("measure", {"arch": "r3000"},
                                 request_id=f"heap-warm-{i}")
            gc.collect()
            tracemalloc.start()
            try:
                for i in range(500):
                    await app.submit("measure", {"arch": "r3000"},
                                     request_id=f"heap-{i}")
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        finally:
            await app.aclose()

    try:
        grown = asyncio.run(body())
    finally:
        set_provenance_enabled(was_enabled)
    assert grown < 0.05 * 2**20, f"heap grew {grown / 2**20:.3f} MB"


# ----------------------------------------------------------------------
# first-scrape visibility of fallback/provenance counters
# ----------------------------------------------------------------------

def test_metrics_expose_preregistered_zero_counters():
    async def body(server, client):
        reader, writer = await asyncio.open_connection(
            server.host, server.port)
        try:
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
            raw = b""
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return raw
                raw += chunk
        finally:
            writer.close()

    with obs.capture(enable_spans=False):
        raw = with_server(body)
    text = raw.decode("utf-8", "replace")
    assert "200 OK" in text
    # no request has run anything, yet the operator can already see
    # every fallback reason and failure counter as a live series.  The
    # registry is process-global (earlier tests may have bumped the
    # values), so presence is the contract: an absent series reads as
    # "no data" where an explicit cell reads as "healthy".
    def series(line_start):
        return re.search(
            rf"^{re.escape(line_start)} \d", text, re.MULTILINE)

    for reason in ("observer", "opclass", "fractional_cost",
                   "fractional_write_buffer"):
        assert series(f'engine_compiled_fallbacks_total{{reason="{reason}"}}')
    assert series("store_write_failed_total")
    assert series("engine_compiled_runs_total")
    assert series('provenance_unknown_lineage_total{layer="engine"}')
    assert series("provenance_stale_results_total")
