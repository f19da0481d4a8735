"""Cluster worker: lease → evaluate → WAL append → heartbeat, forever.

A worker is deliberately stateless beyond its own WAL: it registers,
rebuilds the evaluation plan from the controller's wire payload
(verifying the design-space fingerprint bit-for-bit before writing
anything), then loops leases until the controller says the sweep is
done.  The per-point order inside a lease is the crash-safety
contract:

1. evaluate the point (through the shared engine cache — the
   ``DiskTier`` single-flight already dedupes two workers racing the
   same content digest);
2. append the trial record to the worker's own ``ResultStore`` WAL
   (flushed, line-atomic — the same torn-tail-recoverable format a
   single-process search writes);
3. heartbeat the confirmed count to the controller.

So any progress the controller believes in is already durable, and a
``kill -9`` can only lose *unconfirmed* work, which lease expiry
requeues and the content-addressed merge deduplicates.  Failed trials
are retried with exponential backoff up to ``max_retries``; a point
that exhausts its budget is reported (not silently dropped) and the
sweep continues.

Deterministic fault injection for tests rides on environment
variables: ``REPRO_CLUSTER_FLAKY="index:failures,…"`` makes a point
fail N times before succeeding, ``REPRO_CLUSTER_BROKEN="index,…"``
makes it fail always.
"""

from __future__ import annotations

import http.client
import json
import os
import time
import urllib.parse
from typing import Any, Dict, List, Optional

from repro.explore.objectives import ObjectiveSchema
from repro.explore.runner import (
    evaluate_point_row,
    record_trial_lineage,
    trial_record,
)
from repro.explore.space import DesignSpace
from repro.explore.store import ResultStore, trial_key
from repro.cluster.leases import space_from_wire
from repro.provenance import PROV_STATE as _PROV


class ControllerUnreachable(RuntimeError):
    """The controller stayed silent past the reconnect budget."""


class InjectedTrialError(RuntimeError):
    """A deterministic test fault (see module docstring)."""


class ControllerClient:
    """Tiny JSON-over-HTTP client with reconnect + backoff.

    Tolerates a controller restart: connection errors retry with
    exponential backoff until ``reconnect_s`` of silence, then raise
    :class:`ControllerUnreachable`.
    """

    def __init__(self, url: str, *, timeout_s: float = 10.0,
                 reconnect_s: float = 30.0) -> None:
        parsed = urllib.parse.urlparse(url)
        if parsed.scheme != "http" or parsed.hostname is None:
            raise ValueError(f"controller url must be http://host:port, got {url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout_s = timeout_s
        self.reconnect_s = reconnect_s
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
        return self._conn

    def _drop(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def call(self, method: str, path: str,
             payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        body = (json.dumps(payload, sort_keys=True).encode("utf-8")
                if payload is not None else b"")
        deadline = time.monotonic() + self.reconnect_s
        attempt = 0
        while True:
            try:
                conn = self._connection()
                headers = {"Content-Type": "application/json",
                           "Content-Length": str(len(body))}
                conn.request(method, path, body=body or None,
                             headers=headers)
                response = conn.getresponse()
                data = response.read()
                if response.status >= 400:
                    raise RuntimeError(
                        f"controller answered {response.status} for "
                        f"{method} {path}: {data[:200].decode('utf-8', 'replace')}")
                reply = json.loads(data.decode("utf-8"))
                if not isinstance(reply, dict):
                    raise RuntimeError(f"non-object reply for {path}")
                return reply
            except (OSError, http.client.HTTPException, ValueError):
                self._drop()
                if time.monotonic() >= deadline:
                    raise ControllerUnreachable(
                        f"no controller at {self.host}:{self.port} after "
                        f"{self.reconnect_s:.0f}s")
                time.sleep(min(0.05 * (2 ** attempt), 1.0))
                attempt += 1

    def close(self) -> None:
        self._drop()


def _parse_flaky(raw: str) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        index, _, count = part.partition(":")
        out[int(index)] = int(count or 1)
    return out


class ClusterWorker:
    """One worker process's lease loop (see module docstring)."""

    def __init__(self, controller_url: str, worker_id: str, wal_path: str, *,
                 poll_s: float = 0.1, heartbeat_every: int = 1,
                 max_retries: int = 3, backoff_s: float = 0.05,
                 trial_delay_ms: float = 0.0,
                 reconnect_s: float = 30.0) -> None:
        self.client = ControllerClient(controller_url,
                                       reconnect_s=reconnect_s)
        self.worker_id = worker_id
        self.wal_path = wal_path
        self.poll_s = poll_s
        self.heartbeat_every = max(1, heartbeat_every)
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.trial_delay_ms = trial_delay_ms
        self._flaky = _parse_flaky(os.environ.get("REPRO_CLUSTER_FLAKY", ""))
        self._flaky_seen: Dict[int, int] = {}
        self._broken = {int(part) for part in
                        os.environ.get("REPRO_CLUSTER_BROKEN", "").split(",")
                        if part.strip()}
        self.stats = {"leases": 0, "points": 0, "skipped": 0,
                      "retries": 0, "failures": 0, "abandoned": 0}

    # ------------------------------------------------------------------
    def _evaluate(self, space: DesignSpace, index: int,
                  schema: ObjectiveSchema) -> Dict[str, Any]:
        if index in self._broken:
            raise InjectedTrialError(f"injected permanent fault at point {index}")
        pending = self._flaky.get(index, 0) - self._flaky_seen.get(index, 0)
        if pending > 0:
            self._flaky_seen[index] = self._flaky_seen.get(index, 0) + 1
            raise InjectedTrialError(f"injected flaky fault at point {index}")
        row = evaluate_point_row(space, index, schema)
        if self.trial_delay_ms > 0:
            time.sleep(self.trial_delay_ms / 1e3)
        return row

    def _evaluate_with_retries(self, space: DesignSpace, index: int,
                               schema: ObjectiveSchema,
                               ) -> "tuple[Optional[Dict[str, Any]], Optional[str]]":
        last_error = "unknown"
        for attempt in range(self.max_retries + 1):
            try:
                return self._evaluate(space, index, schema), None
            except Exception as err:  # noqa: BLE001 — a trial must never kill the loop
                last_error = f"{type(err).__name__}: {err}"
                if attempt < self.max_retries:
                    self.stats["retries"] += 1
                    time.sleep(min(self.backoff_s * (2 ** attempt), 1.0))
        return None, last_error

    # ------------------------------------------------------------------
    def _run_lease(self, lease: Dict[str, Any], space: DesignSpace,
                   schema: ObjectiveSchema, store: ResultStore) -> None:
        lease_id = int(lease["id"])
        points = [int(p) for p in lease["points"]]
        limit = len(points)
        done = 0
        retries_before = self.stats["retries"]
        failures: List[Dict[str, Any]] = []
        self.stats["leases"] += 1
        for offset, index in enumerate(points):
            if offset >= limit:
                break
            row, error = self._evaluate_with_retries(space, index, schema)
            if row is None:
                failures.append({"point": index, "error": error})
                self.stats["failures"] += 1
            else:
                key = trial_key(row["mdesc_fp"], row["spec_fp"], schema.digest)
                if key in store:
                    # a restarted worker re-leasing its own points: the
                    # WAL already holds the identical record.
                    self.stats["skipped"] += 1
                else:
                    if _PROV.enabled:
                        store.lineage.append_many(row["lineage"])
                        record_trial_lineage(space, schema, key, row,
                                             engine_path="engine",
                                             sink=store.lineage)
                    store.put(key, trial_record(space, schema, row))
                self.stats["points"] += 1
            done += 1
            if done % self.heartbeat_every == 0 or done >= limit:
                reply = self.client.call(
                    "POST", "/v1/cluster/heartbeat",
                    {"worker": self.worker_id, "lease": lease_id,
                     "done": min(done, limit)})
                if not reply.get("ok"):
                    # expired under us (we stalled past the TTL) — the
                    # range was requeued; abandon rather than complete.
                    self.stats["abandoned"] += 1
                    return
                limit = min(limit, int(reply.get("limit", limit)))
        self.client.call(
            "POST", "/v1/cluster/complete",
            {"worker": self.worker_id, "lease": lease_id,
             "done": min(done, limit),
             "retries": self.stats["retries"] - retries_before,
             "failures": failures})

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Register, loop leases until the sweep is done, return stats."""
        registration = self.client.call(
            "POST", "/v1/cluster/register", {"worker": self.worker_id})
        plan = registration["plan"]
        space = space_from_wire(plan["space"])
        if space.fingerprint != plan["space_fp"]:
            raise RuntimeError(
                "design-space reconstruction mismatch: controller "
                f"{plan['space_fp'][:12]} vs worker {space.fingerprint[:12]}")
        schema = ObjectiveSchema(names=tuple(plan["objectives"]))
        if schema.digest != plan["schema_digest"]:
            raise RuntimeError("objective-schema reconstruction mismatch")
        store = ResultStore(self.wal_path)
        try:
            while True:
                reply = self.client.call(
                    "POST", "/v1/cluster/lease", {"worker": self.worker_id})
                if reply.get("done"):
                    break
                lease = reply.get("lease")
                if not lease:
                    time.sleep(float(reply.get("retry_after_s", self.poll_s)))
                    continue
                self._run_lease(lease, space, schema, store)
        finally:
            self.client.close()
        return dict(self.stats)
