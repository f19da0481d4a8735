"""Lineage persistence and the in-process recorder.

:class:`LineageStore` is the durable half: an append-only JSONL
sidecar (one record per line, last-append-wins on merge) written next
to whatever artifact store it annotates — ``lineage.jsonl`` inside an
engine disk-cache directory, ``<store>.lineage`` beside an explore
``ResultStore``.  It is a :class:`repro.store.appendlog.AppendLog`, so
a torn final line left by a crashed writer is repaired on load and can
never corrupt the next append (``docs/STORAGE.md``, "Append logs").

:class:`Recorder` is the in-process half.  It keeps no records: it
hands each one to the thread-local *collection scopes* active on the
calling thread — ``with PROVENANCE.collect() as records:`` captures
every record produced on this thread inside the block, which is how a
table render or an explore trial learns which executions it actually
touched (including cache hits) — and to an optional sink.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.provenance.graph import LineageGraph, LineageRecord
from repro.store.appendlog import AppendLog


class LineageStore(AppendLog):
    """Append-only JSONL of lineage records (an :class:`AppendLog`)."""

    metric_prefix = "provenance_store"

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._lock = threading.Lock()
        self._records: "OrderedDict[str, LineageRecord]" = OrderedDict()
        for payload in self._read_log():
            try:
                record = LineageRecord.from_dict(payload)
            except ValueError:
                self.skipped_lines += 1
                continue
            self._merge(record)

    # -- writing --------------------------------------------------------
    def _merge(self, record: LineageRecord) -> "tuple[LineageRecord, bool]":
        existing = self._records.get(record.digest)
        if existing is None:
            self._records[record.digest] = record
            return record, True
        merged = existing.merged(record)
        changed = merged.to_dict() != existing.to_dict()
        self._records[record.digest] = merged
        return merged, changed

    def append(self, record: LineageRecord) -> None:
        """Merge ``record`` and persist it; a merge that changes nothing
        writes nothing (idempotent re-recording stays O(0) on disk)."""
        with self._lock:
            merged, changed = self._merge(record)
            if changed:
                self._append_log([merged.to_dict()])

    def append_many(self, records: "list[LineageRecord]") -> None:
        """Merge and persist a batch in one append — callers with
        several records per event (a whole collect scope, a worker's
        payload) pay one append, not one per record."""
        with self._lock:
            lines = []
            for record in records:
                merged, changed = self._merge(record)
                if changed:
                    lines.append(merged.to_dict())
            if lines:
                self._append_log(lines)

    # -- reading --------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._records

    def get(self, digest: str) -> Optional[LineageRecord]:
        with self._lock:
            return self._records.get(digest)

    def records(self) -> List[LineageRecord]:
        with self._lock:
            return list(self._records.values())

    def graph(self) -> LineageGraph:
        return LineageGraph(self.records())


class _ScopeStack(threading.local):
    def __init__(self) -> None:  # called once per thread
        self.stack: "List[tuple[List[LineageRecord], set]]" = []


class Recorder:
    """Routes lineage records to this thread's collect scopes and to an
    optional :class:`LineageStore` sink; it keeps no records itself."""

    def __init__(self) -> None:
        self._scopes = _ScopeStack()

    @property
    def collecting(self) -> bool:
        """Whether a collect scope is active on this thread."""
        return bool(self._scopes.stack)

    def record(self, record: LineageRecord,
               sink: Optional[LineageStore] = None) -> LineageRecord:
        """Deliver ``record`` to every collection scope active on this
        thread and optionally persist it to ``sink`` (which merges by
        digest).  Returns ``record``."""
        for bucket, seen in self._scopes.stack:
            if record.digest not in seen:
                seen.add(record.digest)
                bucket.append(record)
        if sink is not None:
            sink.append(record)
        return record

    def record_chain(self, records: "tuple[LineageRecord, ...]",
                     sink: Optional[LineageStore] = None) -> List[LineageRecord]:
        """Record a whole chain: the same as :meth:`record` per element,
        in one call (the engine's spec → mdesc → program → execution
        chain)."""
        stack = self._scopes.stack
        for record in records:
            for bucket, seen in stack:
                if record.digest not in seen:
                    seen.add(record.digest)
                    bucket.append(record)
        if sink is not None:
            for record in records:
                sink.append(record)
        return list(records)

    def deliver_to_scopes(self, records: "tuple[LineageRecord, ...]") -> None:
        """Deliver a chain the engine has already built to this
        thread's collect scopes.

        ``records`` must be a derivation chain whose *last* element's
        digest uniquely identifies the whole chain (the engine's chains
        end in their execution/replay head).  Dedup is per chain, not
        per record: a scope that already saw the head skips the chain;
        one that hasn't takes all of it.  Upstream records (spec,
        mdesc, program) may therefore appear once per chain in a
        bucket — every consumer merges by digest, and derived-kind
        digests stay unique because they are the dedup key.
        """
        stack = self._scopes.stack
        if not stack:
            return
        head = records[-1].digest
        for bucket, seen in stack:
            if head not in seen:
                seen.add(head)
                bucket.extend(records)

    @contextmanager
    def collect(self) -> Iterator[List[LineageRecord]]:
        """Capture every record produced on this thread in the block.

        Scopes nest: an inner ``collect`` does not steal records from
        an outer one — both receive them.
        """
        bucket: List[LineageRecord] = []
        seen: set = set()
        self._scopes.stack.append((bucket, seen))
        try:
            yield bucket
        finally:
            self._scopes.stack.pop()


#: the process-wide recorder every layer writes through.
PROVENANCE = Recorder()


def lineage_payload(records: "list[LineageRecord]") -> List[Dict[str, object]]:
    """Serialize collected records for shipping across process/RPC
    boundaries (mirrors the obs snapshot-diff pattern)."""
    return [record.to_dict() for record in records]


def merge_lineage_payload(payload: object,
                          sink: Optional[LineageStore] = None) -> List[LineageRecord]:
    """Rehydrate records shipped back from a worker and re-record them
    locally (so parent scopes and sinks observe fan-out work)."""
    merged: List[LineageRecord] = []
    if not isinstance(payload, (list, tuple)):
        return merged
    for item in payload:
        try:
            record = LineageRecord.from_dict(item)
        except (ValueError, TypeError, AttributeError):
            continue
        merged.append(PROVENANCE.record(record, sink=sink))
    return merged
