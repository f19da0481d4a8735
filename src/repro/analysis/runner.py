"""Table regeneration through the experiment engine.

One place knows how to regenerate the paper's seven tables, memoized
under the architecture content (same content -> cached render).  The
CLI, the full report, the benchmark harness and the perf snapshot all
call this module instead of looping over table modules themselves.
Renders run in this process: all seven together take less time than
starting a process pool would.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.analysis import table1, table2, table3, table4, table5, table6, table7
from repro.core.engine import ExperimentEngine, default_engine, fingerprint_spec

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
    live objects.
    """
    from repro.provenance import PROV_STATE, PROVENANCE

    if not PROV_STATE.enabled:
        return TABLE_MODULES[number].render(), [], ()
    with PROVENANCE.collect() as records:
        text = TABLE_MODULES[number].render()
    return text, records, tuple(
        r.digest for r in records if r.kind == "execution")


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


#: (number, registry_fp) -> (text, last recorded record).  The record's
#: digests are pure functions of (number, fp, text); the stored text is
#: compared on every use, so a render that ever produced different
#: bytes under the same key re-hashes instead of lying.  Re-sightings
#: re-record the identical object, so a warm hit keeps naming the
#: request that produced the table.
_TABLE_DIGEST_MEMO: "Dict[Tuple[int, str], Tuple[str, Any]]" = {}


def _record_table(number: int, fp: str, text: str,
                  inputs: "Tuple[str, ...]", sink=None):
    """One lineage node per rendered table, named by (number, registry).

    A record says how the table was *produced*: a render stamps its
    execution inputs and the current request id, while a memoized
    re-render (no inputs) re-records the memoized record unchanged, so
    the node keeps naming the request that produced it and a warm hit
    writes nothing to the sidecar, while any active collect scope
    still observes the table root.  Returns the record (or ``None``
    with provenance off) so ``render_all`` can batch the sidecar
    appends of a whole sweep into one write.
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
    PROVENANCE.record(record, sink=sink)
    _TABLE_DIGEST_MEMO[(number, fp)] = (text, record)
    return record


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
    engine: Optional[ExperimentEngine] = None,
) -> Dict[int, str]:
    """Regenerate tables; returns {number: rendered text} in input order.

    Memoized renders are served from the engine; the rest render in
    this process, each one's collected lineage persisted to the
    engine's sidecar.
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

    engine.misses += len(missing)
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
