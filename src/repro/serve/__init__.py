"""``repro.serve`` — simulation-as-a-service over the experiment engine.

The ROADMAP's north star asks the reproduction to serve heavy traffic,
not just regenerate tables from a CLI.  This package is that serving
front end: an asyncio JSON-over-HTTP server (stdlib only) exposing
``measure``, ``table``, ``arch describe`` and ``explore frontier`` as
endpoints, backed by the thread-safe, content-addressed
:class:`~repro.core.engine.ExperimentEngine` through a worker pool.

The serving disciplines are the point (see ``docs/SERVING.md``):

* **request coalescing** (:mod:`~repro.serve.coalesce`) — identical
  concurrent requests share one engine execution;
* **micro-batching** (:mod:`~repro.serve.batching`) — requests for
  one endpoint admitted in the same event-loop turn dispatch as one
  :meth:`SweepRunner.map` call, with no timer in between;
* **admission control** (:mod:`~repro.serve.admission`) — a bounded
  queue that sheds with typed 429/503 replies instead of queueing
  into unbounded latency, plus per-request deadlines;
* **graceful drain** (:meth:`~repro.serve.server.HttpServer.shutdown`)
  — in-flight requests complete, new ones are refused, zero admitted
  requests are silently dropped;
* a deterministic closed- and open-loop **load generator**
  (:mod:`~repro.serve.loadgen`) reporting nearest-rank p50/p90 and
  max latency, throughput, coalesce rate and shed rate.
"""

from repro.serve.admission import AdmissionController
from repro.serve.batching import Job, MicroBatcher
from repro.serve.coalesce import SingleFlight
from repro.serve.loadgen import (
    BENCH_SCHEMA_VERSION,
    HttpClient,
    LoadStats,
    Reply,
    closed_loop,
    latency_summary,
    open_loop,
    quantile,
    request_mix,
    run_bench,
    write_snapshot,
)
from repro.serve.protocol import (
    ENDPOINTS,
    PROTOCOL_VERSION,
    ROUTES,
    Endpoint,
    ServeError,
    coalesce_key,
    execute_one,
)
from repro.serve.server import (
    MAX_BODY_BYTES,
    HttpServer,
    ServeApp,
    ServeConfig,
    serve_forever,
)

__all__ = [
    "AdmissionController",
    "BENCH_SCHEMA_VERSION",
    "ENDPOINTS",
    "Endpoint",
    "HttpClient",
    "HttpServer",
    "Job",
    "LoadStats",
    "MAX_BODY_BYTES",
    "MicroBatcher",
    "PROTOCOL_VERSION",
    "ROUTES",
    "Reply",
    "ServeApp",
    "ServeConfig",
    "ServeError",
    "SingleFlight",
    "closed_loop",
    "coalesce_key",
    "execute_one",
    "latency_summary",
    "open_loop",
    "quantile",
    "request_mix",
    "run_bench",
    "serve_forever",
    "write_snapshot",
]
