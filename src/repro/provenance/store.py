"""Lineage persistence and the in-process recorder.

:class:`LineageStore` is the durable half: an append-only JSONL
sidecar (one record per line, last-append-wins on merge) written next
to whatever artifact store it annotates — ``lineage.jsonl`` inside an
engine disk-cache directory, ``<store>.lineage`` beside an explore
``ResultStore``.  It is a :class:`repro.store.appendlog.AppendLog`, so
a torn final line left by a crashed writer is repaired on load and can
never corrupt the next append (``docs/STORAGE.md``, "Append logs").

:class:`Recorder` is the in-process half: a bounded, thread-safe map
of the records produced this process, plus thread-local *collection
scopes* — ``with PROVENANCE.collect() as records:`` captures every
record produced on this thread inside the block, which is how the
analysis and serve layers learn which executions a table render or an
HTTP request actually touched (including cache hits).
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
    """Bounded, thread-safe registry of this process's lineage records."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.evictions = 0
        self._lock = threading.RLock()
        self._records: "OrderedDict[str, LineageRecord]" = OrderedDict()
        self._scopes = _ScopeStack()

    def record(self, record: LineageRecord,
               sink: Optional[LineageStore] = None) -> LineageRecord:
        """Merge ``record`` into the registry, deliver it to every
        collection scope active on this thread, and optionally persist
        it to ``sink``.  Returns the merged record."""
        with self._lock:
            existing = self._records.get(record.digest)
            if existing is None:
                merged = record
            elif existing is record or existing == record:
                # the common steady-state sighting: identical content —
                # skip the merge allocation on the engine's hot path
                merged = existing
            else:
                merged = existing.merged(record)
            self._records[record.digest] = merged
            self._records.move_to_end(record.digest)
            while len(self._records) > self.capacity:
                self._records.popitem(last=False)
                self.evictions += 1
        for bucket, seen in self._scopes.stack:
            if record.digest not in seen:
                seen.add(record.digest)
                bucket.append(merged)
        if sink is not None:
            sink.append(merged)
        return merged

    def record_many(self, records: "list[LineageRecord]",
                    sink: Optional[LineageStore] = None) -> List[LineageRecord]:
        return [self.record(record, sink=sink) for record in records]

    def record_chain(self, records: "tuple[LineageRecord, ...]",
                     sink: Optional[LineageStore] = None) -> List[LineageRecord]:
        """Record a whole chain under one lock acquisition.

        Same semantics as calling :meth:`record` per element; the engine
        uses this for its per-run spec → mdesc → program → execution
        chain, where four separate lock round-trips would dominate the
        recording cost.
        """
        merged_out: List[LineageRecord] = []
        with self._lock:
            get = self._records.get
            for record in records:
                existing = get(record.digest)
                if existing is None:
                    merged = record
                elif existing is record or existing == record:
                    merged = existing
                else:
                    merged = existing.merged(record)
                self._records[record.digest] = merged
                self._records.move_to_end(record.digest)
                merged_out.append(merged)
            while len(self._records) > self.capacity:
                self._records.popitem(last=False)
                self.evictions += 1
        stack = self._scopes.stack
        if stack:
            for record, merged in zip(records, merged_out):
                for bucket, seen in stack:
                    if record.digest not in seen:
                        seen.add(record.digest)
                        bucket.append(merged)
        if sink is not None:
            for merged in merged_out:
                sink.append(merged)
        return merged_out

    def deliver_to_scopes(self, records: "tuple[LineageRecord, ...]") -> None:
        """Deliver an already-registered chain to this thread's collect
        scopes without touching the global registry.

        The engine uses this for re-sightings of memoized chains: the
        registry already holds these exact objects, so the only work a
        new sighting creates is making them visible to whatever scope
        (table render, serve flight) is currently collecting — a
        lock-free, thread-local operation.  The registry is bounded,
        though: once newer records have evicted any part of the chain,
        the sighting re-registers the whole chain (:meth:`record_chain`)
        so that what a scope collects — a served request's roots, say —
        still resolves in :meth:`get`.

        ``records`` must be a derivation chain whose *last* element's
        digest uniquely identifies the whole chain (the engine's chains
        end in their execution/replay head).  Dedup is per chain, not
        per record: a scope that already saw the head skips the chain;
        one that hasn't takes all of it.  Upstream records (spec,
        mdesc, program) may therefore appear once per chain in a
        bucket — every consumer merges by digest, and derived-kind
        digests stay unique because they are the dedup key.
        """
        # Lock-free probes: a membership test is atomic under the GIL,
        # and a record evicted just after it is no worse off than one
        # evicted just after a locked re-registration.
        registered = self._records
        for record in records:
            if record.digest not in registered:
                self.record_chain(records)
                return
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

    def get(self, digest: str) -> Optional[LineageRecord]:
        with self._lock:
            return self._records.get(digest)

    def records(self) -> List[LineageRecord]:
        with self._lock:
            return list(self._records.values())

    def graph(self) -> LineageGraph:
        return LineageGraph(self.records())

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._records


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
