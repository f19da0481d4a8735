"""Explore result store: a JSONL write-ahead log over the shared store.

Each evaluated trial is one JSON line keyed by the digest of

* the materialized spec's **machine-description fingerprint** (the
  capability content that selected its handler streams),
* the spec's full content fingerprint (cost knobs the description
  deliberately excludes), and
* the **objective schema digest** (which metrics, which version).

A resumed search loads the file, skips every point whose key is
present, and appends only fresh evaluations — so a killed 500-point
sweep restarts where it stopped, and a second strategy over the same
space reuses the first strategy's trials.  Robust by construction:
the file is an :class:`repro.store.appendlog.AppendLog` — each ``put``
is one line-atomic append, a *torn tail* left by a writer that died
mid-append is repaired on load, and unparsable lines and
foreign-schema records are skipped (counted), with
``explore_store_*`` obs counters (``docs/STORAGE.md``, "Append logs").

Since the storage unification the JSONL file is formally a
*write-ahead log* over the shared content-addressed store: calling
:meth:`ResultStore.compact` moves every record into a sharded
:class:`repro.store.DiskTier` segment at ``<path>.store/`` and
truncates the log.  Loading reads the compacted segment first, then
overlays the WAL (later appends supersede compacted records), so the
append path keeps its crash-safety story — line-atomic appends, torn
tails repaired — while a long-lived store stops re-parsing its whole
history on every open.  Round-trips are bit-identical: a record read
back from the compacted segment compares equal, byte for byte when
re-serialized, to the one appended to the log.

Path-backed stores also keep a lineage sidecar (``<path>.lineage``, a
:class:`repro.provenance.LineageStore`) where the explore runner
persists each trial's provenance chain.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.provenance import LineageStore
from repro.store.appendlog import AppendLog, canonical_line

#: bump when the record layout changes incompatibly.
STORE_SCHEMA_VERSION = 1


def trial_key(mdesc_fingerprint: str, spec_fingerprint: str, schema_digest: str) -> str:
    """The content address one stored trial answers for."""
    blob = json.dumps(
        ["trial", STORE_SCHEMA_VERSION, mdesc_fingerprint, spec_fingerprint, schema_digest],
        separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultStore(AppendLog):
    """A dict of trial records backed (optionally) by a WAL + segment.

    ``path=None`` keeps the store in memory — same API, nothing
    persisted — which is what ad-hoc searches and tests use.  With a
    path, fresh appends land in the JSONL WAL at ``path`` (an
    :class:`~repro.store.appendlog.AppendLog`) and :meth:`compact`
    folds them into the sharded segment directory at
    ``path + ".store"``.
    """

    metric_prefix = "explore_store"

    def __init__(self, path: Optional[str] = None) -> None:
        super().__init__(path)
        #: records loaded from the compacted segment (vs the WAL).
        self.compacted_loaded = 0
        self._records: Dict[str, Dict[str, Any]] = {}
        #: provenance sidecar the runner persists trial lineage into.
        self.lineage: Optional[LineageStore] = (
            LineageStore(f"{path}.lineage") if path is not None else None)
        if path is not None:
            self._load_segment()
            for record in self._read_log():
                if (record.get("schema") != STORE_SCHEMA_VERSION
                        or "key" not in record):
                    self.skipped_lines += 1
                    continue
                # duplicate keys: the latest append wins.
                self._records[record["key"]] = record

    @property
    def segment_dir(self) -> Optional[str]:
        """Where :meth:`compact` files records (``<path>.store/``)."""
        return f"{self.path}.store" if self.path is not None else None

    def _segment_tier(self):
        from repro.store.tiers import DiskTier

        return DiskTier(self.segment_dir, schema=STORE_SCHEMA_VERSION)

    def _load_segment(self) -> None:
        """Read the compacted segment (if any) before the WAL overlay.

        Segment iteration is digest-sorted (the WAL preserved insertion
        order; a compacted store's ``records()`` order is the sorted
        key order, documented, deterministic)."""
        segment = self.segment_dir
        if segment is None or not os.path.isdir(segment):
            return
        tier = self._segment_tier()
        for key in tier.keys():
            record = tier.get(key)
            if isinstance(record, dict) and record.get("key") == key:
                self._records[key] = record
                self.compacted_loaded += 1

    def compact(self) -> int:
        """Fold every record into the sharded segment and truncate the
        WAL (atomically, so a crash mid-compaction never loses records:
        either the old WAL is still there, or the segment holds
        everything).  Returns the number of records in the segment."""
        if self.path is None:
            return 0
        tier = self._segment_tier()
        for key, record in self._records.items():
            tier.put(key, record)
        self.truncate()
        return len(self._records)

    # -- mapping view ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self._records.get(key)

    def records(self) -> Iterator[Dict[str, Any]]:
        """All records: compacted segment first (sorted by key), then
        WAL appends in insertion (file) order."""
        return iter(list(self._records.values()))

    # -- writes ---------------------------------------------------------
    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Insert (or supersede) ``key`` and append the line to disk."""
        payload = dict(record)
        payload["schema"] = STORE_SCHEMA_VERSION
        payload["key"] = key
        self._records[key] = payload
        if self.path is not None:
            self._append_log([payload])

    # -- convenience ----------------------------------------------------
    def records_for_schema(self, schema_digest: str) -> List[Dict[str, Any]]:
        """Records evaluated under one objective schema, file order."""
        return [r for r in self._records.values()
                if r.get("schema_digest") == schema_digest]

    def schema_digests(self) -> List[str]:
        """Distinct objective-schema digests present, file order."""
        seen: List[str] = []
        for record in self._records.values():
            digest = record.get("schema_digest")
            if digest and digest not in seen:
                seen.append(digest)
        return seen


# ----------------------------------------------------------------------
# multi-writer merge
# ----------------------------------------------------------------------

def canonical_record_bytes(record: Dict[str, Any]) -> str:
    """The one serialization every store writer produces for a record
    (the WAL's line format) — the unit of bit-identity."""
    return canonical_line(record)


def merge_result_stores(
    dest: Union[str, ResultStore],
    sources: Sequence[Union[str, ResultStore]],
    compact: bool = False,
) -> Dict[str, int]:
    """Merge several independently-written stores into ``dest``.

    The single-appender assumption :meth:`ResultStore.compact` makes
    ("later append wins") is wrong once several workers write WAL
    segments for overlapping points: the outcome would depend on which
    segment is folded last.  This merge is **deterministic and
    order-independent** instead:

    * records are deduplicated on their trial key (the content address
      of (mdesc, spec, schema) — two workers that evaluated the same
      point produce the same key);
    * when two sources carry *byte-different* records under one key
      (which a deterministic engine never produces, but a torn write
      or version skew could), the lexicographically smallest canonical
      serialization wins — a total order independent of source order;
    * a key ``dest`` already holds is left untouched (resumed merges
      are idempotent), counted under ``existing``;
    * fresh keys are appended to ``dest`` in sorted-key order, so the
      merged WAL bytes are a pure function of the merged *content*;
    * lineage sidecars (``<path>.lineage``) of path-backed sources are
      folded into ``dest``'s sidecar via the digest-idempotent
      :meth:`~repro.provenance.LineageStore.append_many`.

    Returns counters: ``sources``, ``seen`` (records read), ``merged``
    (new keys appended), ``existing`` (already in dest), ``duplicates``
    (same key + same bytes across sources), ``conflicts`` (same key,
    different bytes).  With ``compact=True`` the merged dest is folded
    into its sharded segment afterwards.
    """
    if isinstance(dest, str):
        dest = ResultStore(dest)
    opened = [src if isinstance(src, ResultStore) else ResultStore(src)
              for src in sources]
    report = {"sources": len(opened), "seen": 0, "merged": 0,
              "existing": 0, "duplicates": 0, "conflicts": 0}
    winners: Dict[str, Dict[str, Any]] = {}
    blobs: Dict[str, str] = {}
    for store in opened:
        for record in store.records():
            key = record.get("key")
            if not key:
                continue
            report["seen"] += 1
            blob = canonical_record_bytes(record)
            held = blobs.get(key)
            if held is None:
                winners[key], blobs[key] = record, blob
            elif blob == held:
                report["duplicates"] += 1
            else:
                report["conflicts"] += 1
                if blob < held:
                    winners[key], blobs[key] = record, blob
    for key in sorted(winners):
        if key in dest:
            report["existing"] += 1
            continue
        dest.put(key, winners[key])
        report["merged"] += 1
    if dest.lineage is not None:
        for store in opened:
            if store.lineage is not None and len(store.lineage):
                dest.lineage.append_many(store.lineage.records())
    if compact:
        dest.compact()
    return report
