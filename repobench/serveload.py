"""serve-warm: the stock ``repro serve run`` process under load.

The server is a separate process started exactly as a user would start
it (default settings, an ephemeral port).  The generator lives in the
benchmark process and uses at most two keep-alive connections: an
asyncio open loop at a light fixed rate, each request timed from the
moment it was due, and a closed loop for throughput.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import common

#: the benchmark's own request mix (share of requests per endpoint).
MIX: Tuple[Tuple[str, float], ...] = (
    ("measure", 0.5), ("table", 0.3), ("arch_describe", 0.2))
ARCHES = ("cvax", "m88000", "r2000", "r3000", "sparc", "i860", "rs6000",
          "m68k", "osfriendly")
TABLES = (1, 2, 3, 4, 5, 6, 7)
PATHS = {"measure": "/v1/measure", "table": "/v1/table",
         "arch_describe": "/v1/arch/describe"}

CONNECTIONS = 2
LIGHT_RATE = 60.0
GOLDEN_PATH = os.path.join(common.BENCH_DIR, "golden", "serve_replies.json")
READY_TIMEOUT_S = 60.0


def distinct_requests() -> List[Tuple[str, Dict[str, Any]]]:
    """Every distinct request the mix can draw, in a fixed order."""
    out: List[Tuple[str, Dict[str, Any]]] = []
    out += [("measure", {"arch": a}) for a in ARCHES]
    out += [("table", {"number": n}) for n in TABLES]
    out += [("arch_describe", {"name": a}) for a in ARCHES]
    return out


def request_label(endpoint: str, params: Dict[str, Any]) -> str:
    return endpoint + ":" + json.dumps(params, sort_keys=True)


def draw_request(rng: random.Random) -> Tuple[str, Dict[str, Any]]:
    roll = rng.random()
    if roll < MIX[0][1]:
        return "measure", {"arch": rng.choice(ARCHES)}
    if roll < MIX[0][1] + MIX[1][1]:
        return "table", {"number": rng.choice(TABLES)}
    return "arch_describe", {"name": rng.choice(ARCHES)}


def schedule(rng: random.Random, rate: float, duration_s: float,
             ) -> List[Tuple[float, str, Dict[str, Any]]]:
    """Poisson arrivals at ``rate`` over ``duration_s``: (offset_s, endpoint, params)."""
    out = []
    t = rng.expovariate(rate)
    while t < duration_s:
        endpoint, params = draw_request(rng)
        out.append((t, endpoint, params))
        t += rng.expovariate(rate)
    return out


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["replies"]


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------

class Server:
    """One ``repro serve run`` process on an ephemeral port."""

    def __init__(self, *, traced: bool = False, spans_out: Optional[str] = None):
        env = common.child_env(PYTHONUNBUFFERED="1")
        if traced:
            argv = [sys.executable, os.path.join(common.BENCH_DIR, "serve_launch.py"),
                    spans_out or "", "serve", "run", "--port", "0"]
        else:
            argv = [sys.executable, "-m", "repro", "serve", "run", "--port", "0"]
        self.launch_t = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True,
                                     env=env, cwd=common.ROOT)
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on http://" in line:
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("server never reported its port")

    def peak_rss_mb(self) -> Optional[float]:
        return common.pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; kill if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()
        return self.proc.returncode


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------

class Connection:
    """A keep-alive HTTP/1.1 connection speaking the server's JSON dialect."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, endpoint: str, params: Dict[str, Any],
                      request_id: str) -> Tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port)
        body = json.dumps(params).encode("utf-8")
        head = (f"POST {PATHS[endpoint]} HTTP/1.1\r\n"
                f"Host: 127.0.0.1:{self.port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"X-Request-Id: {request_id}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        assert self.reader is not None
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("connection closed before the status line")
        status = int(status_line.split()[1])
        length = 0
        close = False
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        payload = await self.reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None


@dataclass
class Phase:
    """Outcome of one load phase."""

    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    by_endpoint: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    errors: List[str] = field(default_factory=list)
    #: (request id, latency ms) per completed request, for trace joins.
    ids: List[Tuple[str, float]] = field(default_factory=list)
    #: wall time from the first send to the last reply.
    elapsed_s: float = 0.0

    def merge(self, other: "Phase") -> None:
        self.latencies_ms += other.latencies_ms
        self.late_ms += other.late_ms
        for endpoint, values in other.by_endpoint.items():
            self.by_endpoint.setdefault(endpoint, []).extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.refused += other.refused
        self.errors += other.errors
        self.ids += other.ids
        self.elapsed_s += other.elapsed_s

    async def exchange(self, conn: Connection, golden: Dict[str, str], endpoint: str,
                       params: Dict[str, Any], request_id: str, since: float) -> None:
        """Send one request and check its reply; latency runs from ``since``.

        An errored, refused (429/503/504) or wrong reply is a failure.
        """
        self.attempted += 1
        try:
            status, body = await conn.request(endpoint, params, request_id)
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as err:
            self.failed += 1
            self.errors.append(f"{endpoint}: {type(err).__name__}")
            await conn.close()
            return
        if status != 200:
            self.failed += 1
            self.refused += status in (429, 503, 504)
            self.errors.append(f"{endpoint}: HTTP {status}")
            return
        label = request_label(endpoint, params)
        if golden.get(label) != hashlib.sha256(body).hexdigest():
            self.failed += 1
            self.errors.append(f"{label}: reply differs from golden")
            return
        latency = (time.perf_counter() - since) * 1e3
        self.latencies_ms.append(latency)
        self.by_endpoint.setdefault(endpoint, []).append(latency)
        self.ids.append((request_id, latency))


async def open_loop(conns: Sequence[Connection],
                    plan: Sequence[Tuple[float, str, Dict[str, Any]]],
                    golden: Dict[str, str], *, id_prefix: str) -> Phase:
    """Send ``plan`` on schedule over the given connections.

    A connection takes the next due request as soon as it is free, so a
    slow reply makes later requests late; each is timed from its due time.
    """
    phase = Phase()
    next_index = 0
    start = time.perf_counter() + 0.01

    async def worker(conn: Connection) -> None:
        nonlocal next_index
        while next_index < len(plan):
            index = next_index
            next_index += 1
            offset, endpoint, params = plan[index]
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.late_ms.append((time.perf_counter() - due) * 1e3)
            await phase.exchange(conn, golden, endpoint, params,
                                 f"{id_prefix}-{index:06d}", due)

    await asyncio.gather(*(worker(conn) for conn in conns))
    return phase


async def closed_loop(conns: Sequence[Connection], rng: random.Random,
                      duration_s: float, golden: Dict[str, str], *,
                      id_prefix: str) -> Phase:
    """Each connection sends its next request as soon as the previous
    reply lands, for ``duration_s``."""
    phase = Phase()
    draws = [random.Random(rng.random()) for _ in conns]
    start = time.perf_counter()
    end = start + duration_s

    async def worker(index: int) -> None:
        n = 0
        while time.perf_counter() < end:
            endpoint, params = draw_request(draws[index])
            await phase.exchange(conns[index], golden, endpoint, params,
                                 f"{id_prefix}-{index}-{n:06d}", time.perf_counter())
            n += 1

    await asyncio.gather(*(worker(i) for i in range(len(conns))))
    phase.elapsed_s = time.perf_counter() - start
    return phase


@dataclass
class Slot:
    """One load phase and the host speed beside it."""

    phase: Phase
    #: mean of the reference-kernel runs just before and just after it.
    ref_ms: float


async def measure(port: int, rng: random.Random, golden: Dict[str, str], *,
                  rounds: int, slot_s: float, closed: bool,
                  id_prefix: str) -> Tuple[List[Slot], List[Slot]]:
    """Alternate open-loop and (when ``closed``) closed-loop slots over
    :data:`CONNECTIONS` keep-alive connections.

    The reference kernel runs between slots, while no request is in
    flight, on the CPU the server shares with this process
    (``common.pin_to_one_cpu``), so each slot can be put at nominal
    host speed.  Returns the (open-loop, closed-loop) slots.
    """
    conns = [Connection(port) for _ in range(CONNECTIONS)]
    light: List[Slot] = []
    loaded: List[Slot] = []
    ref = common.reference_kernel()
    try:
        for r in range(rounds):
            kinds = [light] + ([loaded] if closed else [])
            for slots in kinds:
                if slots is light:
                    phase = await open_loop(
                        conns, schedule(rng, LIGHT_RATE, slot_s), golden,
                        id_prefix=f"{id_prefix}-open{r}")
                else:
                    phase = await closed_loop(conns, rng, slot_s, golden,
                                              id_prefix=f"{id_prefix}-closed{r}")
                after = common.reference_kernel()
                slots.append(Slot(phase, (ref + after) / 2.0))
                ref = after
    finally:
        for conn in conns:
            await conn.close()
    return light, loaded


async def warm(port: int, golden: Optional[Dict[str, str]],
               ) -> Tuple[Dict[str, str], List[str]]:
    """One pass over every distinct request.

    Returns label -> reply digest, and the problems: an errored or
    non-200 reply, or (when ``golden`` is given) one that differs from
    its golden digest.
    """
    conn = Connection(port)
    digests: Dict[str, str] = {}
    problems: List[str] = []
    try:
        for i, (endpoint, params) in enumerate(distinct_requests()):
            label = request_label(endpoint, params)
            try:
                status, body = await conn.request(endpoint, params, f"warm-{i:03d}")
            except (ConnectionError, OSError, asyncio.IncompleteReadError) as err:
                problems.append(f"warm-up {label}: {type(err).__name__}")
                await conn.close()
                continue
            if status != 200:
                problems.append(f"warm-up {label}: HTTP {status}")
                continue
            digest = hashlib.sha256(body).hexdigest()
            if golden is not None and golden.get(label) != digest:
                problems.append(f"warm-up reply for {label} differs from golden")
            digests[label] = digest
    finally:
        await conn.close()
    return digests, problems


def start_warm_server(golden: Dict[str, str], **kwargs: Any,
                      ) -> Tuple[Server, float, List[str]]:
    """Launch + warm one server; returns it, the set-up time in s and
    the warm-up's problems."""
    server = Server(**kwargs)
    try:
        _, problems = asyncio.run(warm(server.port, golden))
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.launch_t, problems
