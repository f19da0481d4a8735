"""Content-addressed lineage records and the reachability graph.

Every artifact the pipeline produces — an architecture spec, its
derived machine description, a handler instruction stream, an
:class:`~repro.isa.executor.ExecutionResult`, an explore trial, a
rendered table, a Pareto frontier — is named by a digest the engine
already computes for cache addressing.  A :class:`LineageRecord` makes
the edges between those digests explicit: ``inputs`` lists the
upstream artifact digests a node was derived from, and the scalar
fields carry the measurement context the paper's numbers depend on
(schema/code version, engine path, fallback reason, request id).

:class:`LineageGraph` assembles records into a DAG and answers the two
questions the rest of the subsystem is built on:

* *ancestry* — the full upstream closure of a digest, dependencies
  first, which is what ``repro lineage why``/``replay`` walk; and
* *staleness by reachability* — given a set of artifacts whose content
  digest no longer matches what was recorded, exactly the downstream
  closure is stale (:meth:`LineageGraph.stale_from`).  Nothing outside
  that closure is touched, replacing the blanket schema-version flush
  with per-result invalidation.

The module is dependency-free (stdlib only) so every layer can import
it without cycles; anything that needs the engine or the arch registry
lives in :mod:`repro.provenance.replay`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: bump when the record schema changes incompatibly.  Old sidecar
#: files with a different version load as ``unknown-lineage`` records
#: rather than being trusted or crashing the reader.
LINEAGE_SCHEMA_VERSION = 1

#: the record kind used for artifacts adopted from pre-provenance
#: stores: present, addressable, but with no recorded ancestry.
UNKNOWN_KIND = "unknown-lineage"

def canonical(value: Any) -> Any:
    """Reduce a value tree to JSON-stable primitives, deterministically.

    Mirrors the engine's canonicalizer (dataclasses, enums, mappings,
    sequences) without importing it — provenance sits below the engine
    in the import graph.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, Mapping):
        return {str(canonical(k)): canonical(v) for k, v in sorted(
            value.items(), key=lambda item: str(item[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for lineage")


def digest_of(payload: Any) -> str:
    """SHA-256 of the canonical JSON form (same scheme as engine keys)."""
    blob = json.dumps(canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class LineageRecord:
    """One node of the lineage DAG, addressed by ``digest``.

    ``digest`` is whatever content address the producing layer already
    uses for the artifact (spec fingerprint, experiment key, trial key,
    …), so lineage never invents a second naming scheme.
    """

    digest: str
    kind: str
    inputs: Tuple[str, ...] = ()
    spec_fp: Optional[str] = None
    mdesc_fp: Optional[str] = None
    schema_version: Optional[int] = None
    code_version: Optional[str] = None
    engine_path: Optional[str] = None
    fallback_reason: Optional[str] = None
    request_id: Optional[str] = None
    result_digest: Optional[str] = None
    meta: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "v": LINEAGE_SCHEMA_VERSION,
            "digest": self.digest,
            "kind": self.kind,
        }
        if self.inputs:
            payload["inputs"] = list(self.inputs)
        for field in ("spec_fp", "mdesc_fp", "schema_version", "code_version",
                      "engine_path", "fallback_reason", "request_id",
                      "result_digest"):
            value = getattr(self, field)
            if value is not None:
                payload[field] = value
        if self.meta:
            payload["meta"] = self.meta
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LineageRecord":
        """Rehydrate a record; anything unrecognizable degrades to
        ``unknown-lineage`` instead of raising (legacy data must load)."""
        digest = payload.get("digest")
        if not isinstance(digest, str) or not digest:
            raise ValueError("lineage record without a digest")
        version = payload.get("v")
        kind = payload.get("kind")
        if version != LINEAGE_SCHEMA_VERSION or not isinstance(kind, str):
            return cls(digest=digest, kind=UNKNOWN_KIND,
                       meta={"loaded_from": "incompatible-record"})
        inputs = payload.get("inputs") or ()
        if not isinstance(inputs, (list, tuple)):
            inputs = ()
        meta = payload.get("meta")
        return cls(
            digest=digest,
            kind=kind,
            inputs=tuple(str(i) for i in inputs),
            spec_fp=payload.get("spec_fp"),
            mdesc_fp=payload.get("mdesc_fp"),
            schema_version=payload.get("schema_version"),
            code_version=payload.get("code_version"),
            engine_path=payload.get("engine_path"),
            fallback_reason=payload.get("fallback_reason"),
            request_id=payload.get("request_id"),
            result_digest=payload.get("result_digest"),
            meta=dict(meta) if isinstance(meta, Mapping) else {},
        )

    def merged(self, other: "LineageRecord") -> "LineageRecord":
        """Combine two sightings of one digest (``other`` is newer).

        Inputs union (order-preserving), newer scalar fields win when
        set, a known kind always beats ``unknown-lineage``, and meta
        keys accumulate with newer values overriding.
        """
        if other.digest != self.digest:
            raise ValueError("cannot merge records with different digests")
        kind = self.kind
        if kind == UNKNOWN_KIND and other.kind != UNKNOWN_KIND:
            kind = other.kind
        inputs = list(self.inputs)
        for item in other.inputs:
            if item not in inputs:
                inputs.append(item)
        merged = LineageRecord(
            digest=self.digest, kind=kind, inputs=tuple(inputs),
            meta={**self.meta, **other.meta})
        for field in ("spec_fp", "mdesc_fp", "schema_version", "code_version",
                      "engine_path", "fallback_reason", "request_id",
                      "result_digest"):
            new = getattr(other, field)
            setattr(merged, field, new if new is not None
                    else getattr(self, field))
        return merged


class LineageGraph:
    """A DAG of :class:`LineageRecord` nodes keyed by digest."""

    def __init__(self, records: Iterable[LineageRecord] = ()) -> None:
        self._records: Dict[str, LineageRecord] = {}
        self._children: Optional[Dict[str, List[str]]] = None
        for record in records:
            self.add(record)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, digest: str) -> bool:
        return digest in self._records

    def get(self, digest: str) -> Optional[LineageRecord]:
        return self._records.get(digest)

    def records(self) -> List[LineageRecord]:
        return list(self._records.values())

    def add(self, record: LineageRecord) -> LineageRecord:
        existing = self._records.get(record.digest)
        merged = existing.merged(record) if existing is not None else record
        self._records[record.digest] = merged
        self._children = None
        return merged

    def add_many(self, records: Iterable[LineageRecord]) -> None:
        for record in records:
            self.add(record)

    # -- traversal ------------------------------------------------------
    def _child_index(self) -> Dict[str, List[str]]:
        if self._children is None:
            index: Dict[str, List[str]] = {}
            for record in self._records.values():
                for parent in record.inputs:
                    index.setdefault(parent, []).append(record.digest)
            self._children = index
        return self._children

    def ancestry(self, digest: str, include_self: bool = True) -> List[LineageRecord]:
        """Upstream closure of ``digest``, dependencies first.

        Inputs that have no record in the graph are silently absent
        here; :meth:`missing_inputs` names them explicitly.
        """
        order: List[LineageRecord] = []
        seen = set()

        def visit(node: str) -> None:
            if node in seen:
                return
            seen.add(node)
            record = self._records.get(node)
            if record is None:
                return
            for parent in record.inputs:
                visit(parent)
            order.append(record)

        visit(digest)
        if not include_self and order and order[-1].digest == digest:
            order.pop()
        return order

    def stale_from(self, changed: Iterable[str]) -> "set[str]":
        """Exactly the downstream closure of the changed artifacts.

        This is the staleness rule: a record is stale iff a changed
        digest is reachable walking its inputs — nothing else is, so
        unrelated cache entries survive a local invalidation untouched.
        """
        changed_set = set(changed)
        index = self._child_index()
        stale: "set[str]" = set()
        frontier = list(changed_set)
        while frontier:
            node = frontier.pop()
            for child in index.get(node, ()):
                if child not in stale and child not in changed_set:
                    stale.add(child)
                    frontier.append(child)
        return stale

    def missing_inputs(self) -> Dict[str, List[str]]:
        """digest -> inputs named by its record but absent from the graph."""
        missing: Dict[str, List[str]] = {}
        for record in self._records.values():
            absent = [p for p in record.inputs if p not in self._records]
            if absent:
                missing[record.digest] = absent
        return missing

    def unknown(self) -> List[LineageRecord]:
        return [r for r in self._records.values() if r.kind == UNKNOWN_KIND]


# ----------------------------------------------------------------------
# cache-envelope staleness (the engine's hot-path check)
# ----------------------------------------------------------------------

#: block field -> artifact it fingerprints, in check order.
_BLOCK_ARTIFACTS = (("spec_fp", "spec"), ("mdesc_fp", "mdesc"),
                    ("stream_fp", "program"))


def block_status(block: Any, current: Mapping[str, str]) -> "tuple[str, Optional[str]]":
    """Classify a cached result's lineage block against freshly
    recomputed artifact fingerprints: ``("fresh"|"stale"|"unknown", artifact)``.

    ``current`` maps ``spec_fp``/``mdesc_fp``/``stream_fp`` to the
    digests just computed for the lookup.  A block naming different
    ancestry than the key implies means the entry was produced from
    other artifacts (poisoned shared cache, hand-edited entry, digest
    drift) — the result is stale by reachability: the changed artifact
    is an ancestor of the execution in the block's own micro-graph.
    """
    if not isinstance(block, Mapping) or not isinstance(block.get("spec_fp"), str):
        return "unknown", None
    changed: Dict[str, str] = {}
    for field, artifact in _BLOCK_ARTIFACTS:
        recorded = block.get(field)
        if recorded != current.get(field):
            changed[str(recorded)] = artifact
    if not changed:
        return "fresh", None
    # Confirm via the graph the block itself describes: the execution
    # node must be reachable from every changed artifact.
    graph = LineageGraph()
    spec = str(block.get("spec_fp"))
    mdesc = str(block.get("mdesc_fp"))
    stream = str(block.get("stream_fp"))
    exe = str(block.get("key", "execution"))
    graph.add(LineageRecord(digest=spec, kind="spec"))
    graph.add(LineageRecord(digest=mdesc, kind="mdesc", inputs=(spec,)))
    graph.add(LineageRecord(digest=stream, kind="program"))
    graph.add(LineageRecord(digest=exe, kind="execution",
                            inputs=(spec, mdesc, stream)))
    stale = graph.stale_from(changed)
    if exe in stale:
        # Name the artifact closest to the root for the metric label.
        for field, artifact in _BLOCK_ARTIFACTS:
            if str(block.get(field)) in changed:
                return "stale", artifact
    return "stale", next(iter(changed.values()))
