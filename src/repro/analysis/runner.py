"""Table regeneration through the experiment engine.

One place knows how to regenerate the paper's seven tables: serially,
memoized (same architecture content -> cached render), or fanned across
worker processes with deterministic ordering.  The CLI, the full
report, the benchmark harness and the perf snapshot all call this
module instead of looping over table modules themselves.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.analysis import table1, table2, table3, table4, table5, table6, table7
from repro.core.engine import (
    ExperimentEngine,
    SweepRunner,
    default_engine,
    fingerprint_spec,
)

#: the paper's tables, in presentation order.
TABLE_MODULES = {
    1: table1,
    2: table2,
    3: table3,
    4: table4,
    5: table5,
    6: table6,
    7: table7,
}

ALL_TABLE_NUMBERS: Tuple[int, ...] = tuple(TABLE_MODULES)


def registry_fingerprint() -> str:
    """Combined content hash of every registered architecture.

    Any change to any spec (a cost knob, a TLB size, a new machine)
    changes this value, invalidating every memoized table render.
    """
    from repro.arch.registry import ALL_ARCH_NAMES, get_arch

    from repro.core.engine import _digest  # stable content digest

    return _digest([fingerprint_spec(get_arch(name)) for name in ALL_ARCH_NAMES])


def _collect_render(number: int):
    """Render one table in-process, collecting its lineage.

    Returns ``(text, records, execution_digests)`` with the records as
    live objects — the serial path stays serialization-free; only the
    process-pool worker below pays the payload round-trip.
    """
    from repro.provenance import PROV_STATE, PROVENANCE

    if not PROV_STATE.enabled:
        return TABLE_MODULES[number].render(), [], ()
    with PROVENANCE.collect() as records:
        text = TABLE_MODULES[number].render()
    return text, records, tuple(
        r.digest for r in records if r.kind == "execution")


def _render_worker(number: int) -> "Dict[str, Any]":
    """Top-level (picklable) worker: render one table from scratch.

    Returns the text plus the lineage collected during the render —
    payload and execution digests ride the return value because the
    parallel path crosses a process boundary, exactly like the serve
    workers.
    """
    from repro.provenance import lineage_payload

    text, records, inputs = _collect_render(number)
    return {"text": text, "lineage": lineage_payload(records),
            "inputs": list(inputs)}


#: record kinds the engine's cache entries already carry in their
#: envelope blocks — re-persisting them to the sidecar would write the
#: same fact twice (``adopt_disk_cache`` re-derives them on load).
_ENGINE_DERIVED_KINDS = frozenset(
    ("spec", "mdesc", "program", "execution", "tlb", "replay"))


def _persist_records(records, sink) -> None:
    """Push collected lineage the cache entries cannot re-derive into
    the engine sidecar (one batched append; content no-ops are free)."""
    if sink is not None:
        extra = [r for r in records if r.kind not in _ENGINE_DERIVED_KINDS]
        if extra:
            sink.append_many(extra)


#: (number, registry_fp) -> (text, last merged record).  The record's
#: digests are pure functions of (number, fp, text); the stored text is
#: compared on every use, so a render that ever produced different
#: bytes under the same key re-hashes instead of lying.  Re-sightings
#: re-record the identical object, which the recorder recognizes by
#: identity.
_TABLE_DIGEST_MEMO: "Dict[Tuple[int, str], Tuple[str, Any]]" = {}


def _record_table(number: int, fp: str, text: str,
                  inputs: "Tuple[str, ...]", sink=None):
    """One lineage node per rendered table, named by (number, registry).

    A record says how the table was *produced*: a render stamps its
    execution inputs and the current request id, while a memoized
    re-render (no inputs) re-records the memoized record unchanged, so
    the node keeps naming the request that produced it and a warm hit
    writes nothing to the sidecar, while collect scopes (e.g. the
    serve layer) still observe the table root.  Returns the merged
    record (or ``None`` with provenance off) so ``render_all`` can
    batch the sidecar appends of a whole sweep into one write.
    """
    from repro.provenance import (
        PROV_STATE,
        PROVENANCE,
        LineageRecord,
        digest_of,
        get_request_id,
    )

    if not PROV_STATE.enabled:
        return None
    rid = get_request_id()
    memo = _TABLE_DIGEST_MEMO.get((number, fp))
    if memo is not None and memo[0] == text:
        record = memo[1]
        if inputs and (record.inputs != inputs or record.request_id != rid):
            record = LineageRecord(
                digest=record.digest, kind="table", inputs=inputs,
                request_id=rid, result_digest=record.result_digest,
                meta={"number": number, "registry_fp": fp})
    else:
        record = LineageRecord(
            digest=digest_of(["table", number, fp]),
            kind="table", inputs=inputs, request_id=rid,
            result_digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
            meta={"number": number, "registry_fp": fp})
    if len(_TABLE_DIGEST_MEMO) > 64:
        _TABLE_DIGEST_MEMO.clear()
    merged = PROVENANCE.record(record, sink=sink)
    _TABLE_DIGEST_MEMO[(number, fp)] = (text, merged)
    return merged


def render_table(number: int, engine: Optional[ExperimentEngine] = None) -> str:
    """Render table ``number``, memoized under the registry content hash."""
    if number not in TABLE_MODULES:
        raise KeyError(f"unknown table {number!r}; choose 1-7")
    engine = engine or default_engine()
    fp = registry_fingerprint()
    key = ("table-render", number, fp)
    sink = getattr(engine, "_lineage", None)
    found, text = engine.memo_get(key)
    if found:
        engine.hits += 1
        _record_table(number, fp, text, (), sink=sink)
        return text
    engine.misses += 1
    text, records, inputs = _collect_render(number)
    _persist_records(records, sink)
    engine.memo_put(key, text)
    _record_table(number, fp, text, inputs, sink=sink)
    return text


def render_all(
    numbers: Optional[Sequence[int]] = None,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[int, str]:
    """Regenerate tables; returns {number: rendered text} in input order.

    ``parallel=True`` fans cache-miss renders across a process pool via
    :class:`SweepRunner` (falling back to serial where pools are
    unavailable); results are keyed and ordered by table number either
    way, so the two modes are observably identical.  Memoized renders
    are served from the engine without touching the pool.
    """
    numbers = list(ALL_TABLE_NUMBERS if numbers is None else numbers)
    for number in numbers:
        if number not in TABLE_MODULES:
            raise KeyError(f"unknown table {number!r}; choose 1-7")
    engine = engine or default_engine()
    fp = registry_fingerprint()
    keys = {number: ("table-render", number, fp) for number in numbers}

    sink = getattr(engine, "_lineage", None)
    out: Dict[int, str] = {}
    missing = []
    table_records = []
    for number in numbers:
        found, text = engine.memo_get(keys[number])
        if found:
            engine.hits += 1
            table_records.append(_record_table(number, fp, text, ()))
            out[number] = text
        else:
            missing.append(number)

    if missing:
        engine.misses += len(missing)
        if parallel:
            from repro.provenance import merge_lineage_payload

            runner = SweepRunner(parallel=True, max_workers=max_workers)
            for number, outcome in zip(missing,
                                       runner.map(_render_worker, missing)):
                _persist_records(
                    merge_lineage_payload(outcome["lineage"]), sink)
                engine.memo_put(keys[number], outcome["text"])
                table_records.append(_record_table(
                    number, fp, outcome["text"], tuple(outcome["inputs"])))
                out[number] = outcome["text"]
        else:
            for number in missing:
                text, records, inputs = _collect_render(number)
                _persist_records(records, sink)
                engine.memo_put(keys[number], text)
                table_records.append(_record_table(number, fp, text, inputs))
                out[number] = text

    # one sidecar append for the whole sweep's table roots
    if sink is not None:
        sink.append_many([r for r in table_records if r is not None])

    return {number: out[number] for number in numbers}
