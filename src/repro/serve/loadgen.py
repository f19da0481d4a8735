"""Deterministic load generation and the serving benchmark.

Two classical load disciplines over the real HTTP wire (stdlib asyncio
streams; no requests library):

* **closed loop** — K client connections, each issuing its next
  request the moment the previous reply lands.  Offered load adapts to
  the server, so the measurement characterizes sustainable throughput.
* **open loop** — requests fire on a fixed arrival schedule whether or
  not earlier ones completed, the discipline that exposes queueing
  collapse (Becker & Chakraborty's argument for sound latency
  statistics: an overloaded open-loop system shows it in the tail, not
  in the mean).

Both are deterministic: the request mix is derived from a seed, and
latency statistics are nearest-rank percentiles over every completed
request — never averages of averages.  A summary reports p50, p90 and
the max, and no p99: the bench's loops time 16 to 64 requests, and the
nearest-rank p99 of fewer than 100 samples is the max.

:func:`run_bench` composes four scenarios against in-process servers
(coalesce, shed, drain, load) into the snapshot `repro serve bench`
writes and CI's serve job gates on.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.serve.protocol import ENDPOINTS
from repro.serve.server import HttpServer, ServeApp, ServeConfig

#: schema of the `repro serve bench` snapshot (bump on incompatible
#: layout changes; 2 dropped the latency summaries' ``p99``).
BENCH_SCHEMA_VERSION = 2


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (q in [0, 1]) of an unsorted sequence."""
    if not values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be within [0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies_ms: Sequence[float]) -> Dict[str, float]:
    if not latencies_ms:
        return {"count": 0}
    return {
        "count": len(latencies_ms),
        "p50": round(quantile(latencies_ms, 0.50), 3),
        "p90": round(quantile(latencies_ms, 0.90), 3),
        "mean": round(sum(latencies_ms) / len(latencies_ms), 3),
        "max": round(max(latencies_ms), 3),
    }


# ----------------------------------------------------------------------
# request mix
# ----------------------------------------------------------------------

#: (endpoint, params) templates the default mix draws from.
_MIX_ARCHES = ("cvax", "r2000", "r3000", "sparc", "i860", "m88000", "rs6000",
               "osfriendly")


def request_mix(n: int, seed: int = 0, *,
                unique: bool = False) -> List[Tuple[str, Dict[str, Any]]]:
    """A deterministic sequence of n (endpoint, params) requests.

    The same seed always yields the same sequence.  ``unique=True``
    stamps every request with a distinct ``nonce`` so no two requests
    share a coalescing key — the configuration that isolates admission
    control and batching from coalescing.
    """
    rng = random.Random(seed)
    out: List[Tuple[str, Dict[str, Any]]] = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.5:
            params: Dict[str, Any] = {"arch": rng.choice(_MIX_ARCHES)}
            endpoint = "measure"
        elif roll < 0.8:
            params = {"number": rng.randint(1, 7)}
            endpoint = "table"
        else:
            params = {"name": rng.choice(_MIX_ARCHES)}
            endpoint = "arch_describe"
        if unique:
            params["nonce"] = i
        out.append((endpoint, params))
    return out


# ----------------------------------------------------------------------
# a minimal asyncio HTTP client
# ----------------------------------------------------------------------

@dataclass
class Reply:
    """One request's outcome as the client saw it."""

    endpoint: str
    status: int  # HTTP status, or 0 for a connection-level failure
    latency_ms: float
    body: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == 200


class HttpClient:
    """One keep-alive connection issuing JSON POSTs."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(self, endpoint: str, params: Dict[str, Any], *,
                      deadline_ms: Optional[float] = None) -> Reply:
        """POST one endpoint request; connection failures become status 0."""
        path = ENDPOINTS[endpoint].path
        body = json.dumps(params).encode("utf-8")
        headers = [
            f"POST {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if deadline_ms is not None:
            headers.append(f"X-Deadline-Ms: {deadline_ms:g}")
        payload = ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body
        t0 = time.perf_counter()
        try:
            if self._writer is None:
                await self._connect()
            assert self._writer is not None and self._reader is not None
            self._writer.write(payload)
            await self._writer.drain()
            status, reply_body, keep_alive = await self._read_response()
        except (ConnectionError, OSError, asyncio.IncompleteReadError, EOFError):
            await self.close()
            return Reply(endpoint, 0, (time.perf_counter() - t0) * 1e3)
        if not keep_alive:
            await self.close()
        return Reply(endpoint, status, (time.perf_counter() - t0) * 1e3,
                     reply_body)

    async def _read_response(self) -> Tuple[int, Dict[str, Any], bool]:
        assert self._reader is not None
        line = await self._reader.readline()
        if not line:
            raise EOFError("connection closed before status line")
        status = int(line.decode("latin-1").split()[1])
        headers: Dict[str, str] = {}
        while True:
            raw = await self._reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise EOFError("connection closed inside headers")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await self._reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        try:
            parsed = json.loads(body.decode("utf-8")) if body else {}
        except ValueError:
            parsed = {}
        if not isinstance(parsed, dict):
            parsed = {"value": parsed}
        return status, parsed, keep_alive


# ----------------------------------------------------------------------
# load disciplines
# ----------------------------------------------------------------------

@dataclass
class LoadStats:
    """What one generator run observed (client side)."""

    discipline: str
    issued: int
    wall_s: float
    replies: List[Reply] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return sum(1 for r in self.replies if r.ok)

    @property
    def by_status(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for reply in self.replies:
            key = str(reply.status) if reply.status else "conn_error"
            counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0

    def summary(self) -> Dict[str, Any]:
        ok_latencies = [r.latency_ms for r in self.replies if r.ok]
        return {
            "discipline": self.discipline,
            "issued": self.issued,
            "ok": self.ok,
            "by_status": self.by_status,
            "wall_s": round(self.wall_s, 4),
            "throughput_rps": round(self.throughput_rps, 1),
            "latency_ms": latency_summary(ok_latencies),
        }


async def closed_loop(host: str, port: int,
                      mix: Sequence[Tuple[str, Dict[str, Any]]], *,
                      clients: int = 4) -> LoadStats:
    """K connections, each firing its share of the mix back-to-back."""
    shares: List[List[Tuple[str, Dict[str, Any]]]] = [
        list(mix[i::clients]) for i in range(clients)]
    start = asyncio.Event()
    replies: List[Reply] = []

    async def worker(share: Sequence[Tuple[str, Dict[str, Any]]]) -> None:
        client = HttpClient(host, port)
        await start.wait()
        try:
            for endpoint, params in share:
                replies.append(await client.request(endpoint, params))
        finally:
            await client.close()

    tasks = [asyncio.ensure_future(worker(share)) for share in shares]
    await asyncio.sleep(0)  # let every worker reach the barrier
    t0 = time.perf_counter()
    start.set()
    await asyncio.gather(*tasks)
    return LoadStats("closed", len(mix), time.perf_counter() - t0,
                     replies)


async def open_loop(host: str, port: int,
                    mix: Sequence[Tuple[str, Dict[str, Any]]], *,
                    rate_rps: float = 200.0) -> LoadStats:
    """Fixed arrival schedule: request i fires at i/rate, regardless."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    interval = 1.0 / rate_rps
    replies: List[Reply] = []

    async def one(endpoint: str, params: Dict[str, Any],
                  delay_s: float) -> None:
        await asyncio.sleep(delay_s)
        client = HttpClient(host, port)
        try:
            replies.append(await client.request(endpoint, params))
        finally:
            await client.close()

    t0 = time.perf_counter()
    await asyncio.gather(*(
        one(endpoint, params, i * interval)
        for i, (endpoint, params) in enumerate(mix)))
    return LoadStats("open", len(mix), time.perf_counter() - t0, replies)


# ----------------------------------------------------------------------
# metric windows
# ----------------------------------------------------------------------

def _counter_total(window: Dict[str, Any], name: str) -> float:
    entry = window.get("metrics", {}).get(name)
    if not entry:
        return 0.0
    return sum(entry["cells"].values())


# ----------------------------------------------------------------------
# holding a burst in flight
# ----------------------------------------------------------------------

class WorkerGate:
    """Keeps every worker thread of a :class:`ServeApp` busy until opened.

    Batches dispatched meanwhile queue behind the held threads as they
    would behind slow work, so a burst stays admitted and in flight — to
    coalesce, to be shed, or to be drained — for exactly as long as a
    scenario needs, with no timer to race.  Leaving the ``with`` block
    opens the gate whatever happened inside it.
    """

    def __init__(self, app: ServeApp) -> None:
        self._open = threading.Event()
        # The pool's work queue is FIFO: these take every thread before
        # any batch dispatched after them.
        for _ in range(app.config.workers):
            app._pool.submit(self._open.wait)

    def __enter__(self) -> "WorkerGate":
        return self

    def __exit__(self, *exc: Any) -> None:
        self._open.set()


async def wait_until(ready: Callable[[], bool], timeout_s: float = 10.0) -> None:
    """Poll ``ready()`` from the event loop until it holds or time runs
    out; callers check the outcome themselves."""
    deadline = time.perf_counter() + timeout_s
    while not ready() and time.perf_counter() < deadline:
        await asyncio.sleep(0.001)


# ----------------------------------------------------------------------
# benchmark scenarios
# ----------------------------------------------------------------------

async def _with_server(config: ServeConfig, body) -> Dict[str, Any]:
    """Start an HTTP server, run ``body(server, metrics-window)``, drain."""
    server = HttpServer(config=config)
    await server.start()
    with obs.capture(enable_spans=False) as capture:
        try:
            extra = await body(server)
        finally:
            await server.shutdown()
        window = capture.metrics()
    out = dict(extra)
    out["metrics"] = {
        name: _counter_total(window, name)
        for name in ("serve_coalesced_total", "serve_executions_total",
                     "serve_shed_total", "serve_batches_total",
                     "serve_deadline_expired_total")
    }
    return out


async def scenario_coalesce(n: int = 8) -> Dict[str, Any]:
    """N identical concurrent requests must share one engine execution."""
    config = ServeConfig(port=0, max_pending=n + 4, max_batch=n + 4)

    async def body(server: HttpServer) -> Dict[str, Any]:
        async def one() -> Reply:
            client = HttpClient(server.host, server.port)
            try:
                return await client.request("measure", {"arch": "r3000"})
            finally:
                await client.close()

        flights = server.app.flights
        with WorkerGate(server.app):
            tasks = [asyncio.ensure_future(one()) for _ in range(n)]
            await wait_until(lambda: flights.total_followers >= n - 1)
        replies = await asyncio.gather(*tasks)
        payloads = [r.body for r in replies]
        return {
            "requests": n,
            "ok": sum(1 for r in replies if r.ok),
            "identical_payloads": all(p == payloads[0] for p in payloads),
        }

    out = await _with_server(config, body)
    out["coalesced"] = int(out["metrics"]["serve_coalesced_total"])
    out["executions"] = int(out["metrics"]["serve_executions_total"])
    out["coalesce_rate"] = round(out["coalesced"] / n, 4)
    return out


async def scenario_shed(burst: int = 12, max_pending: int = 4) -> Dict[str, Any]:
    """A burst past the admission bound sheds with typed 429s."""
    config = ServeConfig(port=0, max_pending=max_pending, max_batch=burst)

    async def body(server: HttpServer) -> Dict[str, Any]:
        async def one(i: int) -> Reply:
            client = HttpClient(server.host, server.port)
            try:
                return await client.request(
                    "measure", {"arch": "r3000", "nonce": i})
            finally:
                await client.close()

        admission = server.app.admission
        with WorkerGate(server.app):
            tasks = [asyncio.ensure_future(one(i)) for i in range(burst)]
            # every request either holds a slot or has its refusal
            await wait_until(lambda: admission.pending + sum(
                t.done() for t in tasks) == burst)
        replies = await asyncio.gather(*tasks)
        shed_replies = [r for r in replies if r.status == 429]
        return {
            "burst": burst,
            "max_pending": max_pending,
            "ok": sum(1 for r in replies if r.ok),
            "shed": len(shed_replies),
            "typed_replies": all(
                r.body.get("error") == "overloaded"
                and "retry_after_s" in r.body for r in shed_replies),
            "unanswered": sum(1 for r in replies if r.status == 0),
            "peak_pending": server.app.admission.peak_pending,
        }

    out = await _with_server(config, body)
    out["accounted"] = out["ok"] + out["shed"] + out["unanswered"] == burst
    return out


async def scenario_drain(inflight: int = 8) -> Dict[str, Any]:
    """Graceful drain: every admitted request completes, none vanish."""
    config = ServeConfig(port=0, max_pending=inflight + 4,
                         max_batch=inflight + 4)
    server = HttpServer(config=config)
    await server.start()
    app = server.app

    async def one(i: int) -> Reply:
        client = HttpClient(server.host, server.port)
        try:
            return await client.request(
                "measure", {"arch": "sparc", "nonce": i})
        finally:
            await client.close()

    with obs.capture(enable_spans=False):
        # Admit the whole burst, then pull the plug while it is still
        # queued behind the held workers.
        with WorkerGate(app):
            tasks = [asyncio.ensure_future(one(i)) for i in range(inflight)]
            await wait_until(lambda: app.admission.pending == inflight)
            pending_at_drain = app.admission.pending
            shutdown = asyncio.ensure_future(server.shutdown())
            await wait_until(lambda: app.draining)
        await shutdown
        replies = await asyncio.gather(*tasks)

    refused_connect = 0
    try:
        probe = HttpClient(server.host, server.port)
        reply = await probe.request("measure", {"arch": "sparc"})
        await probe.close()
        if reply.status in (0, 503):
            refused_connect = 1
    except (ConnectionError, OSError):
        refused_connect = 1
    return {
        "issued": inflight,
        "pending_at_drain": pending_at_drain,
        "completed": sum(1 for r in replies if r.ok),
        "refused": sum(1 for r in replies if r.status == 503),
        "unanswered": sum(1 for r in replies if r.status == 0),
        "post_drain_refused": bool(refused_connect),
    }


async def scenario_load(requests: int = 64, clients: int = 4,
                        seed: int = 0, *,
                        open_rate_rps: float = 300.0,
                        open_requests: int = 32) -> Dict[str, Any]:
    """Mixed closed-loop + open-loop traffic against one warmed server.

    One untimed pass over the distinct requests of both mixes runs
    first, so the timed loops measure serving, not first renders; its
    executions are reported as ``warmup_executions``.
    """
    config = ServeConfig(port=0, max_pending=max(64, requests), max_batch=16)
    closed_mix = request_mix(requests, seed)
    open_mix = request_mix(open_requests, seed + 1)
    distinct = {json.dumps(request, sort_keys=True): request
                for request in closed_mix + open_mix}

    async def body(server: HttpServer) -> Dict[str, Any]:
        assert server.host is not None and server.port is not None
        client = HttpClient(server.host, server.port)
        with obs.capture(enable_spans=False) as warmup:
            try:
                for endpoint, params in distinct.values():
                    await client.request(endpoint, params)
            finally:
                await client.close()
            warmup_executions = _counter_total(
                warmup.metrics(), "serve_executions_total")
        closed = await closed_loop(server.host, server.port, closed_mix,
                                   clients=clients)
        opened = await open_loop(server.host, server.port, open_mix,
                                 rate_rps=open_rate_rps)
        return {"warmup_executions": int(warmup_executions),
                "closed": closed.summary(), "open": opened.summary()}

    out = await _with_server(config, body)
    issued = out["closed"]["issued"] + out["open"]["issued"]
    out["shed_rate"] = round(out["metrics"]["serve_shed_total"] / issued, 4)
    out["errors"] = (issued
                     - out["closed"]["ok"] - out["open"]["ok"]
                     - int(out["metrics"]["serve_shed_total"]))
    return out


# ----------------------------------------------------------------------
# the benchmark entry point
# ----------------------------------------------------------------------

def _checks(scenarios: Dict[str, Any]) -> Dict[str, bool]:
    coalesce = scenarios["coalesce"]
    shed = scenarios["shed"]
    drain = scenarios["drain"]
    load = scenarios["load"]
    return {
        # N identical concurrent requests -> 1 execution, N-1 coalesced.
        "coalesce_single_execution": coalesce["executions"] == 1,
        "coalesce_counter_n_minus_1": (
            coalesce["coalesced"] == coalesce["requests"] - 1),
        "coalesce_identical_payloads": coalesce["identical_payloads"],
        # the queue bounds instead of growing: nothing exceeded the
        # limit, refusals were typed, every request got an answer.
        "shed_bounded_queue": shed["peak_pending"] <= shed["max_pending"],
        "shed_occurred": shed["shed"] > 0,
        "shed_typed_replies": shed["typed_replies"],
        "shed_all_accounted": shed["accounted"],
        # graceful drain: every admitted request completed, zero
        # requests went unanswered, post-drain work is refused.
        "drain_all_answered": drain["unanswered"] == 0,
        "drain_completions_plus_refusals": (
            drain["completed"] + drain["refused"] == drain["issued"]),
        "drain_refuses_after": drain["post_drain_refused"],
        # the load run is clean and the latency stats exist.
        "load_zero_errors": load["errors"] == 0,
        # after the warm-up pass every timed request is answered from
        # the answer memo: the timed loops execute nothing.
        "load_timed_no_executions": (
            load["metrics"]["serve_executions_total"]
            == load["warmup_executions"]),
        "load_latency_reported": (
            load["closed"]["latency_ms"].get("p50", 0) > 0
            and load["closed"]["latency_ms"].get("max", 0) > 0),
    }


async def run_bench(*, quick: bool = False, seed: int = 0) -> Dict[str, Any]:
    """Run every scenario; returns the snapshot dict."""
    import platform as _platform
    from datetime import datetime, timezone

    scale = 1 if quick else 2
    scenarios = {
        "coalesce": await scenario_coalesce(n=8),
        "shed": await scenario_shed(burst=12, max_pending=4),
        "drain": await scenario_drain(inflight=8),
        "load": await scenario_load(
            requests=32 * scale, clients=4, seed=seed,
            open_requests=16 * scale),
    }
    checks = _checks(scenarios)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "generated_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "python": _platform.python_version(),
        "platform": _platform.platform(),
        "quick": quick,
        "seed": seed,
        "scenarios": scenarios,
        "checks": checks,
    }


def write_snapshot(snapshot: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
