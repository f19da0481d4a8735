"""The one crash-safe JSONL append log under every persistent log.

The explore result WAL, the lineage sidecars and the cluster lease
journal all persist the same way: one JSON object per line, appended,
never rewritten in place.  :class:`AppendLog` is that mechanism, once:

* **Line format.**  ``json.dumps(obj, sort_keys=True,
  separators=(",", ":"))`` plus ``"\\n"`` — :func:`canonical_line`.
* **Appends.**  Each call encodes its lines and issues one
  ``os.write`` on an ``O_APPEND`` descriptor opened for that call, so
  concurrent appenders (threads or processes) never interleave inside
  a line, and a file replaced underneath (:meth:`truncate`) is picked
  up by the next append.  No fsync: an append reaches the kernel, so it
  survives ``kill -9`` of the writer but not a power loss.
* **Repair on open.**  A file that does not end in a newline lost its
  writer mid-append.  If the torn tail parses as a JSON object its
  newline is restored (``recovered_tail``); otherwise it is truncated
  away (``dropped_tail``).  Either way the file is rewritten
  newline-terminated (temp file, fsync, ``os.replace``) before any new
  append, so the next line can never join the torn one.
* **Counters.**  ``<metric_prefix>_tail_recovered_total``,
  ``<metric_prefix>_lines_dropped_total`` and
  ``<metric_prefix>_write_failed_total``.

Owners subclass it, set :attr:`AppendLog.metric_prefix`, read their
records through :meth:`AppendLog._read_log` and validate them; the log
itself only rejects lines that are not JSON objects.  Write failures
are counted and swallowed: persistence is best-effort for every owner.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional

from repro.obs import OBS_STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS

#: counter suffix -> help text; names are ``<prefix>_<suffix>_total``.
LOG_COUNTERS = {
    "tail_recovered": "torn log tails completed on open",
    "lines_dropped": "torn log tails truncated away on open",
    "write_failed": "log writes dropped on OSError",
}


def canonical_line(obj: Mapping[str, Any]) -> str:
    """The one serialization every log line carries (no newline)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_object(raw: bytes) -> Optional[Dict[str, Any]]:
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError:  # includes UnicodeDecodeError
        return None
    return obj if isinstance(obj, dict) else None


class AppendLog:
    """A JSONL file of JSON objects: appended, repaired on open."""

    #: names this log's counters (``<metric_prefix>_*_total``).
    metric_prefix = "append_log"

    def __init__(self, path: Optional[str]) -> None:
        self.path = path
        #: lines that are not JSON objects, plus the owner's rejects.
        self.skipped_lines = 0
        #: torn final line completed (parseable) on open.
        self.recovered_tail = 0
        #: torn final line truncated away (unparsable) on open.
        self.dropped_tail = 0

    def _read_log(self) -> Iterator[Dict[str, Any]]:
        """Yield every JSON-object line in file order, repairing a torn
        tail on disk first.  A missing or unreadable file is empty."""
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return
        if data and not data.endswith(b"\n"):
            data = self._repair_tail(data)
        for raw in data.splitlines():
            raw = raw.strip()
            if not raw:
                continue
            obj = _parse_object(raw)
            if obj is None:
                self.skipped_lines += 1
            else:
                yield obj

    def _repair_tail(self, data: bytes) -> bytes:
        head, _, tail = data.rpartition(b"\n")
        repaired = head + b"\n" if head else b""
        if _parse_object(tail) is not None:
            self.recovered_tail += 1
            self._count("tail_recovered")
            repaired += tail + b"\n"
        else:
            self.dropped_tail += 1
            self._count("lines_dropped")
        self._replace(repaired)
        return repaired

    def _append_log(self, objs: Iterable[Mapping[str, Any]]) -> None:
        """Append ``objs`` as lines in one ``os.write``."""
        data = "".join(canonical_line(obj) + "\n" for obj in objs).encode("utf-8")
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                if os.write(fd, data) != len(data):
                    raise OSError("short append")
            finally:
                os.close(fd)
        except OSError:
            self._count("write_failed")

    def truncate(self) -> None:
        """Atomically empty the log (the old file survives a failure)."""
        self._replace(b"")

    def _replace(self, data: bytes) -> None:
        tmp = f"{self.path}.tmp.{os.getpid()}-{threading.get_ident()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except OSError:
            self._count("write_failed")
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _count(self, suffix: str) -> None:
        if _OBS.metrics_on:
            _METRICS.counter(f"{self.metric_prefix}_{suffix}_total",
                             LOG_COUNTERS[suffix]).inc()
