"""End-to-end trace correlation through the serving layer.

The contract under test: every HTTP reply names a request ID — the
client's when it sent a well-formed one, a fresh one otherwise; the ID
lands on the request span and on a ``serve_request`` lineage record
whose inputs are the derived work the request touched; error replies
(deadline-expired, shed) still close their span and leave a lineage
stub; and the metrics endpoint exposes the provenance and fallback
counters from the very first scrape.
"""

import asyncio
import json
import re

from repro import obs
from repro.core.engine import ExperimentEngine, default_engine, set_default_engine
from repro.analysis.runner import render_table
from repro.provenance import PROVENANCE, reset_request_id, set_request_id
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


def serve_request_records():
    return [r for r in PROVENANCE.records() if r.kind == "serve_request"]


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

def test_request_id_lands_on_span_and_lineage_with_roots():
    async def body(server, client):
        return await raw_post(server.host, server.port, "/v1/measure",
                              b'{"arch": "r3000"}',
                              ["X-Request-Id: corr-1"])

    with obs.capture() as capture:
        status_line, _, _ = with_server(body)
        spans = [s for s in capture.spans if s.category == "request"]
    assert "200" in status_line
    assert any(s.attrs.get("request_id") == "corr-1" for s in spans)
    records = [r for r in serve_request_records()
               if r.request_id == "corr-1"]
    assert len(records) == 1
    assert records[0].meta["status"] == 200
    assert "code" not in records[0].meta
    # its inputs are the derived roots the request produced
    assert records[0].inputs
    for digest in records[0].inputs:
        assert PROVENANCE.get(digest) is not None


def test_expired_deadline_still_closes_span_and_leaves_stub():
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
    stubs = [r for r in serve_request_records()
             if r.request_id == "corr-dead"]
    assert len(stubs) == 1
    assert stubs[0].meta["status"] == 504
    assert stubs[0].meta["code"] == "deadline_exceeded"


def test_shed_request_still_carries_id_and_stub():
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

    done = asyncio.run(body())
    shed = [e for e in done if isinstance(e, ServeError) and e.status == 429]
    assert shed, "burst past max_pending=1 must shed"
    stubs = [r for r in serve_request_records()
             if r.request_id and r.request_id.startswith("corr-shed-")
             and r.meta.get("status") == 429]
    assert len(stubs) == len(shed)
    for stub in stubs:
        assert stub.meta["code"] == "overloaded"
        assert stub.inputs == ()


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


def serve_record(request_id):
    (record,) = [r for r in serve_request_records()
                 if r.request_id == request_id]
    return record


def test_roots_resolve_after_the_recorder_evicts_their_chains():
    serve_sequentially(["evict-warm"])
    capacity = PROVENANCE.capacity
    PROVENANCE.capacity = 64
    try:
        # each request adds a serve_request record and reuses the
        # memoized chains, so these push the chains out of the registry
        serve_sequentially([f"evict-{i}" for i in range(200)])
        last = serve_record("evict-199")
        assert last.inputs
        missing = [d for d in last.inputs if PROVENANCE.get(d) is None]
        assert missing == []
    finally:
        PROVENANCE.capacity = capacity


def test_execution_record_names_its_producing_request():
    previous = default_engine()
    set_default_engine(ExperimentEngine())  # the first request runs cold
    try:
        serve_sequentially(["produce-1", "reuse-2"], arch="sparc")
    finally:
        set_default_engine(previous)
    first, second = serve_record("produce-1"), serve_record("reuse-2")
    assert first.inputs and set(first.inputs) == set(second.inputs)
    for digest in first.inputs:
        record = PROVENANCE.get(digest)
        assert record.kind == "execution"
        assert record.request_id == "produce-1"


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
    assert PROVENANCE.get(table["digest"]).request_id == "t-first"


def test_execute_one_envelope_carries_roots_not_records():
    outcome = execute_one(("measure", {"arch": "r3000"}, "envelope-1"))
    assert outcome["ok"] is True
    assert outcome["roots"]
    assert "lineage" not in outcome


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
