"""Simulation-as-a-service: the asyncio serving core and HTTP front.

Two layers:

* :class:`ServeApp` — the transport-free serving core.  ``await
  app.submit(endpoint, params)`` runs the full discipline pipeline:
  validate → answer memo → coalesce (:mod:`~repro.serve.coalesce`) →
  admit (:mod:`~repro.serve.admission`) → group with the jobs admitted
  in the same event-loop turn (:mod:`~repro.serve.batching`) → execute
  on a thread pool through one shared, thread-safe
  :class:`~repro.core.engine.ExperimentEngine` via
  :meth:`SweepRunner.map`.  A repeated request to a pure endpoint with
  no ``nonce`` is answered from the app's answer memo, filled by the
  first execution, and goes no further.  The request id rides to the
  pool thread, so the engine stamps it on the spans and cache entries
  the request produces.  Tests and the load generator drive it
  directly; every discipline is observable through ``repro.obs``
  (per-endpoint latency histograms, queue-depth gauge,
  memo-hit/coalesce/batch/shed/deadline counters, one span per
  request).
* :class:`HttpServer` — a minimal JSON-over-HTTP/1.1 front end on
  ``asyncio.start_server`` (stdlib only, keep-alive supported) that
  maps routes to endpoints, plus ``GET /healthz`` and ``GET /metrics``
  (Prometheus text).  :meth:`HttpServer.shutdown` is the graceful
  drain: stop accepting, refuse new work with typed 503s, let every
  admitted request complete and flush its reply, then close.

The server is a trusted-network measurement service (it will read
result-store paths the client names); it performs no authentication.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.engine import SweepRunner
from repro.obs import OBS_STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.provenance import (
    clean_request_id,
    new_request_id,
    reset_request_id,
    set_request_id,
)

from repro.serve.admission import AdmissionController
from repro.serve.batching import Job, MicroBatcher
from repro.serve.coalesce import SingleFlight
from repro.serve.protocol import (
    ENDPOINTS,
    ROUTES,
    ServeError,
    bad_request,
    coalesce_key,
    execute_one,
)

#: reject request bodies past this size with a typed 400.
MAX_BODY_BYTES = 1 << 20


@dataclass
class ServeConfig:
    """Tuning knobs of the serving disciplines (see docs/SERVING.md)."""

    host: str = "127.0.0.1"
    port: int = 8023
    #: admission-control slot count (bounded queue).
    max_pending: int = 64
    #: 429 Retry-After hint handed to shed clients.
    retry_after_s: float = 0.05
    #: most jobs one event-loop turn groups into a single dispatch.
    max_batch: int = 16
    #: executor threads running SweepRunner batches.
    workers: int = 2
    #: deadline applied when a request does not carry its own (None = no deadline).
    default_deadline_ms: Optional[float] = None


class ServeApp:
    """The transport-free serving core (one per server)."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.flights = SingleFlight()
        self.admission = AdmissionController(
            self.config.max_pending, retry_after_s=self.config.retry_after_s)
        self.batcher = MicroBatcher(
            self._dispatch_batch, max_batch=self.config.max_batch)
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="serve-worker")
        self._sweep = SweepRunner()
        #: coalesce key -> answer of a request to a pure endpoint that
        #: carries no nonce, filled on the event loop from each successful
        #: execution.  The filling execution passed the engine's lineage
        #: check; hits do not check again.  Validation admits one key per
        #: registered architecture for ``measure`` and ``arch_describe``
        #: and one per table, so the memo holds at most 9 + 7 + 9 = 25
        #: entries and needs no eviction.
        self._answers: Dict[str, Dict[str, Any]] = {}
        #: perf_counter origin for request spans (serve-local timeline).
        self._epoch = time.perf_counter()
        self._closed = False
        self._preregister_metrics()

    # -- metrics/span plumbing ------------------------------------------
    #: compiled-path fallback labels the engine can emit; pre-registered
    #: below so a scrape sees explicit zeros, not missing series.
    _FALLBACK_REASONS = ("observer", "opclass", "fractional_cost",
                         "fractional_write_buffer")

    def _preregister_metrics(self) -> None:
        """Create zero cells for the engine counters operators alert on.

        ``/metrics`` renders the full registry snapshot, so a counter
        that has never fired is otherwise absent — and an absent series
        reads as "no data" where an explicit 0 reads as "healthy".
        """
        if not _OBS.metrics_on:
            return
        _METRICS.counter(
            "engine_compiled_runs_total",
            "cold executions served by the compiled path").inc(0)
        fallbacks = _METRICS.counter(
            "engine_compiled_fallbacks_total",
            "cold executions that fell back from the compiled path "
            "to the interpreter")
        for reason in self._FALLBACK_REASONS:
            fallbacks.inc(0, reason=reason)
        memo_hits = _METRICS.counter(
            "serve_memo_hits_total",
            "requests answered from the answer memo, by endpoint")
        for endpoint in ENDPOINTS.values():
            if endpoint.pure:
                memo_hits.inc(0, endpoint=endpoint.name)
        _METRICS.counter(
            "provenance_stale_results_total",
            "cached results re-executed because lineage reachability "
            "showed a changed upstream artifact").inc(0)
        _METRICS.counter(
            "provenance_unknown_lineage_total",
            "cache hits served from pre-provenance entries").inc(
                0, layer="engine")
        # the unified storage layer's counters (tier hits, promotions,
        # lock waits, quarantines, gc) — one source of truth for names
        from repro.store import preregister_store_metrics

        preregister_store_metrics(_METRICS)
        # cluster scheduling counters (lease grants/expiries/steals,
        # retries, liveness) — zero cells on any /metrics surface
        from repro.cluster import preregister_cluster_metrics

        preregister_cluster_metrics(_METRICS)

    def _count(self, name: str, help: str, **labels: Any) -> None:
        if _OBS.metrics_on:
            _METRICS.counter(name, help).inc(**labels)

    def _finish_request(self, endpoint_name: str, t0: float, status: int,
                        request_id: Optional[str] = None) -> None:
        t1 = time.perf_counter()
        if _OBS.metrics_on:
            _METRICS.counter(
                "serve_requests_total",
                "requests answered, by endpoint and status").inc(
                    endpoint=endpoint_name, status=str(status))
            _METRICS.histogram(
                "serve_request_latency_ms",
                "request latency in wall milliseconds, by endpoint").observe(
                    (t1 - t0) * 1e3, endpoint=endpoint_name)
        tracer = _OBS.tracer
        if tracer.active:
            attrs: Dict[str, Any] = {"track": "serve",
                                     "endpoint": endpoint_name,
                                     "status": status}
            if request_id is not None:
                attrs["request_id"] = request_id
            tracer.complete(
                f"request:{endpoint_name}", "request",
                start_us=(t0 - self._epoch) * 1e6,
                end_us=(t1 - self._epoch) * 1e6, **attrs)

    # -- the request pipeline -------------------------------------------
    async def submit(self, endpoint_name: str, params: Any, *,
                     deadline_ms: Optional[float] = None,
                     request_id: Optional[str] = None) -> Dict[str, Any]:
        """Serve one request; returns the reply payload or raises ServeError.

        ``request_id`` correlates this request's span and the lineage
        of the work it produces (the HTTP front end passes the
        validated or generated ``X-Request-Id``); one is generated when
        absent so direct ``ServeApp`` callers get correlation too.

        A repeat of a nonce-free request to a pure endpoint is answered
        from the answer memo before it joins a flight: no admission
        slot, batch, pool hop or engine call.  While draining, or once
        its deadline has passed, it takes the full path instead, which
        refuses it with the typed 503 or 504.  The memoized dict is
        shared by every caller that asks the same question, as a
        coalesced follower shares its leader's result: treat replies as
        read-only.
        """
        t0 = time.perf_counter()
        status = 500
        if request_id is None:
            request_id = new_request_id()
        token = set_request_id(request_id)
        try:
            endpoint = ENDPOINTS.get(endpoint_name)
            if endpoint is None:
                raise bad_request(
                    f"unknown endpoint {endpoint_name!r}; choose one of "
                    f"{', '.join(sorted(ENDPOINTS))}")
            normalized = endpoint.validate(params)
            key = coalesce_key(endpoint, normalized)
            if deadline_ms is None:
                deadline_ms = self.config.default_deadline_ms
            deadline_t = (t0 + deadline_ms / 1e3
                          if deadline_ms is not None else None)
            answer = self._answers.get(key)
            if (answer is not None and not self.draining
                    and (deadline_t is None
                         or time.perf_counter() <= deadline_t)):
                self._count("serve_memo_hits_total",
                            "requests answered from the answer memo, "
                            "by endpoint", endpoint=endpoint_name)
                status = 200
                return answer
            future, leader = self.flights.join(key)
            if not leader:
                self._count("serve_coalesced_total",
                            "requests coalesced onto an in-flight execution",
                            endpoint=endpoint_name)
            else:
                admitted = True
                try:
                    self.admission.admit()
                except ServeError as err:
                    admitted = False
                    self._count("serve_shed_total",
                                "requests refused by admission control",
                                reason=err.code)
                    # Fail the whole flight: identical requests arriving
                    # in the same instant share the refusal, adding no load.
                    self.flights.finish(key, error=err)
                if admitted:
                    self.batcher.submit(Job(
                        endpoint=endpoint, params=normalized, key=key,
                        admitted_t=t0, deadline_t=deadline_t,
                        attrs={"request_id": request_id}))
            result = await asyncio.shield(future)
            status = 200
            return result
        except ServeError as err:
            status = err.status
            raise
        finally:
            self._finish_request(endpoint_name, t0, status, request_id)
            reset_request_id(token)

    async def _dispatch_batch(self, jobs: List[Job]) -> None:
        """Run one micro-batch on the pool and resolve its flights."""
        now = time.perf_counter()
        live: List[Job] = []
        for job in jobs:
            if job.deadline_t is not None and now > job.deadline_t:
                self._count("serve_deadline_expired_total",
                            "requests expired before dispatch",
                            endpoint=job.endpoint.name)
                self._complete(job, error=ServeError(
                    504, "deadline_exceeded",
                    f"deadline expired before dispatch "
                    f"({(now - job.admitted_t) * 1e3:.1f} ms queued)"))
            else:
                live.append(job)
        if not live:
            return
        if _OBS.metrics_on:
            _METRICS.counter(
                "serve_batches_total",
                "micro-batches dispatched, by endpoint").inc(
                    endpoint=live[0].endpoint.name)
            _METRICS.histogram(
                "serve_batch_size",
                "jobs per dispatched micro-batch").observe(len(live))
        items = [(job.endpoint.name, dict(job.params),
                  job.attrs.get("request_id")) for job in live]
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._pool,
                functools.partial(self._sweep.map, execute_one, items))
        except Exception as err:  # pool torn down mid-flight, and the like
            failure = ServeError(500, "internal",
                                 f"batch execution failed: {err}")
            for job in live:
                self._complete(job, error=failure)
            return
        for job, outcome in zip(live, outcomes):
            if outcome.get("ok"):
                self._count("serve_executions_total",
                            "unique engine-backed executions performed",
                            endpoint=job.endpoint.name)
                if job.endpoint.pure and "nonce" not in job.params:
                    self._answers[job.key] = outcome["value"]
                self._complete(job, result=outcome["value"])
            else:
                self._complete(job, error=ServeError(
                    int(outcome.get("status", 500)),
                    str(outcome.get("code", "internal")),
                    str(outcome.get("message", "worker failure"))))

    def _complete(self, job: Job, *, result: Any = None,
                  error: Optional[ServeError] = None) -> None:
        self.flights.finish(job.key, result=result, error=error)
        self.admission.release()

    # -- lifecycle -------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self.admission.draining

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Stop admitting, run every admitted request to completion.

        After this resolves, every request that was ever admitted has
        had its future resolved — the zero-silent-drops guarantee.
        """
        self.admission.begin_drain()
        await self.batcher.drain()
        await self.admission.drained(timeout)

    async def aclose(self, timeout: Optional[float] = None) -> None:
        """Drain, then release the worker pool (idempotent)."""
        if self._closed:
            return
        await self.drain(timeout)
        self._closed = True
        self._pool.shutdown(wait=True)


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------

class _BadHttp(Exception):
    """Unparseable HTTP on the wire: answer 400 and close."""


async def _read_request(reader: asyncio.StreamReader,
                        ) -> "Optional[Tuple[str, str, Dict[str, str], bytes]]":
    """Parse one request: (method, target, headers, body); None on EOF."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _BadHttp("malformed request line")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise _BadHttp("connection closed inside headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise _BadHttp("malformed header line")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0") or "0"
    try:
        length = int(length_text)
    except ValueError:
        raise _BadHttp("malformed Content-Length")
    if length < 0 or length > MAX_BODY_BYTES:
        raise _BadHttp("unreasonable Content-Length")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def _http_payload(status: int, body: bytes, content_type: str,
                  keep_alive: bool,
                  extra_headers: "Optional[Mapping[str, str]]" = None) -> bytes:
    reason = {
        200: "OK", 400: "Bad Request", 404: "Not Found",
        405: "Method Not Allowed", 429: "Too Many Requests",
        500: "Internal Server Error", 503: "Service Unavailable",
        504: "Gateway Timeout",
    }.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


#: public aliases — ``repro.cluster`` speaks the same wire dialect (one
#: parser, one response builder) instead of growing a second HTTP stack.
read_http_request = _read_request
http_payload = _http_payload


class HttpServer:
    """JSON-over-HTTP front end for a :class:`ServeApp`."""

    def __init__(self, app: Optional[ServeApp] = None, *,
                 config: Optional[ServeConfig] = None) -> None:
        if app is not None and config is not None and app.config is not config:
            raise ValueError("pass either an app or a config, not both")
        self.app = app or ServeApp(config)
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "Tuple[str, int]":
        """Bind and start accepting; returns (host, port) actually bound."""
        config = self.app.config
        self._server = await asyncio.start_server(
            self._on_connection, host=config.host, port=config.port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def shutdown(self, timeout: Optional[float] = None, *,
                       grace_s: float = 1.0) -> None:
        """Graceful drain: in-flight requests complete, new work is refused.

        Ordering: stop accepting connections, drain the app (admitted
        requests resolve; new submissions see typed 503s), give open
        connections a grace period to flush their final replies, then
        close whatever is left idling in keep-alive reads.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.app.aclose(timeout)
        live = [task for task in self._conn_tasks if not task.done()]
        if live:
            await asyncio.wait(live, timeout=grace_s)
        for task in list(self._conn_tasks):
            if not task.done():
                task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)

    # -- connection handling ---------------------------------------------
    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadHttp as err:
                    writer.write(_http_payload(
                        400,
                        json.dumps({"error": "bad_request",
                                    "message": str(err)}).encode("utf-8"),
                        "application/json", keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = await self._respond(writer, *request)
                if not keep_alive or self.app.draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, writer: asyncio.StreamWriter, method: str,
                       target: str, headers: Dict[str, str],
                       body: bytes) -> bool:
        """Route one request and write one reply; returns keep-alive."""
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        # Honor a well-formed client X-Request-Id, mint one otherwise,
        # and echo it on every reply (errors included) so the client
        # can correlate its response with spans and lineage records.
        request_id = (clean_request_id(headers.get("x-request-id"))
                      or new_request_id())
        status, payload, content_type, extra = await self._route(
            method, target, headers, body, request_id)
        extra = dict(extra or {})
        extra.setdefault("X-Request-Id", request_id)
        if self.app.draining:
            keep_alive = False
        writer.write(_http_payload(status, payload, content_type,
                                   keep_alive, extra))
        await writer.drain()
        return keep_alive

    async def _route(self, method: str, target: str,
                     headers: Dict[str, str], body: bytes,
                     request_id: Optional[str] = None,
                     ) -> "Tuple[int, bytes, str, Optional[Dict[str, str]]]":
        path = target.split("?", 1)[0]
        if path == "/healthz":
            health = {
                "status": "draining" if self.app.draining else "ok",
                "pending": self.app.admission.pending,
                "in_flight_keys": len(self.app.flights),
                "endpoints": sorted(ROUTES),
            }
            return 200, _json_bytes(health), "application/json", None
        if path == "/metrics":
            from repro.obs.export import render_prometheus

            text = render_prometheus(_METRICS.snapshot())
            return 200, text.encode("utf-8"), "text/plain; version=0.0.4", None
        endpoint = ROUTES.get(path)
        if endpoint is None:
            return 404, _json_bytes({"error": "not_found",
                                     "message": f"no route {path!r}"}), \
                "application/json", None
        if method != "POST":
            return 405, _json_bytes({"error": "method_not_allowed",
                                     "message": "use POST"}), \
                "application/json", None
        try:
            params = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, ValueError):
            return 400, _json_bytes({"error": "bad_request",
                                     "message": "body is not valid JSON"}), \
                "application/json", None
        deadline_ms: Optional[float] = None
        header_deadline = headers.get("x-deadline-ms")
        if header_deadline is not None:
            try:
                deadline_ms = float(header_deadline)
            except ValueError:
                return 400, _json_bytes(
                    {"error": "bad_request",
                     "message": "X-Deadline-Ms must be a number"}), \
                    "application/json", None
        elif isinstance(params, dict) and "deadline_ms" in params:
            raw = params.pop("deadline_ms")
            if not isinstance(raw, (int, float)) or isinstance(raw, bool):
                return 400, _json_bytes(
                    {"error": "bad_request",
                     "message": "deadline_ms must be a number"}), \
                    "application/json", None
            deadline_ms = float(raw)
        try:
            result = await self.app.submit(endpoint.name, params,
                                           deadline_ms=deadline_ms,
                                           request_id=request_id)
        except ServeError as err:
            extra = ({"Retry-After": f"{err.retry_after_s:.3f}"}
                     if err.retry_after_s is not None else None)
            return err.status, _json_bytes(err.payload()), \
                "application/json", extra
        except Exception as err:  # noqa: BLE001 - last-resort firewall
            return 500, _json_bytes({"error": "internal",
                                     "message": f"{type(err).__name__}"}), \
                "application/json", None
        return 200, _json_bytes(result), "application/json", None


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


async def serve_forever(config: Optional[ServeConfig] = None) -> None:
    """Run an HTTP server until SIGINT/SIGTERM, then drain gracefully.

    What ``repro serve run`` executes; metrics are enabled for the
    lifetime of the process so ``GET /metrics`` always has data.
    """
    import signal

    from repro import obs

    obs.enable_metrics()
    server = HttpServer(config=config)
    host, port = await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    # Announce only once the handlers are in: a client that signals on
    # this line must reach the drain, not the default (killing) action.
    print(f"repro.serve listening on http://{host}:{port} "
          f"(endpoints: {', '.join(sorted(ROUTES))})", flush=True)
    try:
        await stop.wait()
    finally:
        print("draining (in-flight requests complete, new ones are refused)...")
        await server.shutdown()
        print("drained; all admitted requests completed.")
