"""LineageStore and Recorder tests: persistence, crash safety, scopes.

The contract under test: appends are idempotent by content (re-recording
an identical record writes nothing), a torn final line is repaired on
load (completed when parseable, truncated when not, both counted),
collect scopes are thread-local and nest, and payload round-trips ship
records across process boundaries losslessly.
"""

import json
import threading

from repro import obs
from repro.obs.metrics import REGISTRY
from repro.provenance import (
    LineageRecord,
    LineageStore,
    Recorder,
    lineage_payload,
    merge_lineage_payload,
)


def rec(digest, kind="execution", inputs=(), **kwargs):
    return LineageRecord(digest=digest, kind=kind, inputs=tuple(inputs),
                         **kwargs)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def test_store_round_trips_records(tmp_path):
    path = tmp_path / "lineage.jsonl"
    store = LineageStore(str(path))
    store.append(rec("d1", inputs=("a",), engine_path="compiled"))
    store.append(rec("d2", kind="trial"))
    reloaded = LineageStore(str(path))
    assert len(reloaded) == 2
    assert reloaded.get("d1").engine_path == "compiled"
    assert reloaded.get("d2").kind == "trial"


def test_identical_append_writes_nothing(tmp_path):
    path = tmp_path / "lineage.jsonl"
    store = LineageStore(str(path))
    store.append(rec("d1", inputs=("a",)))
    size = path.stat().st_size
    store.append(rec("d1", inputs=("a",)))
    assert path.stat().st_size == size
    # a merge that adds information does write
    store.append(rec("d1", inputs=("b",)))
    assert path.stat().st_size > size
    assert set(LineageStore(str(path)).get("d1").inputs) == {"a", "b"}


def test_torn_parseable_tail_is_completed(tmp_path):
    path = tmp_path / "lineage.jsonl"
    store = LineageStore(str(path))
    store.append(rec("d1"))
    line = json.dumps(rec("d2").to_dict(), sort_keys=True,
                      separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line)  # crash before the newline
    reloaded = LineageStore(str(path))
    assert reloaded.recovered_tail == 1
    assert reloaded.get("d2") is not None
    # the file on disk is newline-terminated again
    assert open(path, "rb").read().endswith(b"\n")
    # ...so a third loader sees a healthy file
    third = LineageStore(str(path))
    assert third.recovered_tail == 0 and len(third) == 2


def test_torn_garbage_tail_is_truncated_and_counted(tmp_path):
    path = tmp_path / "lineage.jsonl"
    store = LineageStore(str(path))
    store.append(rec("d1"))
    with open(path, "ab") as fh:
        fh.write(b'{"v":1,"digest":"d2","ki')  # torn mid-record
    with obs.capture(enable_spans=False):
        before = REGISTRY.counter(
            "provenance_store_lines_dropped_total").total()
        reloaded = LineageStore(str(path))
        after = REGISTRY.counter(
            "provenance_store_lines_dropped_total").total()
    assert reloaded.dropped_tail == 1
    assert after == before + 1
    assert len(reloaded) == 1
    # the torn bytes are gone from disk; the next append is safe
    reloaded.append(rec("d3"))
    assert len(LineageStore(str(path))) == 2


def test_interior_garbage_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "lineage.jsonl"
    store = LineageStore(str(path))
    store.append(rec("d1"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
    store.append_many([rec("d2")])
    reloaded = LineageStore(str(path))
    assert reloaded.skipped_lines == 1
    assert len(reloaded) == 2


def test_unwritable_store_degrades_to_memory(tmp_path):
    store = LineageStore(str(tmp_path / "no" / "such" / "dir" / "l.jsonl"))
    store.append(rec("d1"))  # OSError swallowed, counted when metrics on
    assert store.get("d1") is not None


# ----------------------------------------------------------------------
# recorder scopes
# ----------------------------------------------------------------------

def test_collect_scope_captures_and_nests():
    recorder = Recorder()
    with recorder.collect() as outer:
        recorder.record(rec("d1"))
        with recorder.collect() as inner:
            recorder.record(rec("d2"))
        recorder.record(rec("d3"))
    assert [r.digest for r in outer] == ["d1", "d2", "d3"]
    assert [r.digest for r in inner] == ["d2"]


def test_collect_scope_is_thread_local():
    recorder = Recorder()
    seen_in_thread = []

    def other():
        recorder.record(rec("other"))
        with recorder.collect() as mine:
            recorder.record(rec("theirs"))
        seen_in_thread.extend(r.digest for r in mine)

    with recorder.collect() as here:
        worker = threading.Thread(target=other)
        worker.start()
        worker.join()
        recorder.record(rec("here"))
    assert [r.digest for r in here] == ["here"]
    assert seen_in_thread == ["theirs"]


def test_recorder_merges_and_sinks(tmp_path):
    recorder = Recorder()
    sink = LineageStore(str(tmp_path / "l.jsonl"))
    recorder.record(rec("d1", inputs=("a",)), sink=sink)
    recorder.record(rec("d1", inputs=("b",)), sink=sink)
    assert set(sink.get("d1").inputs) == {"a", "b"}


# ----------------------------------------------------------------------
# cross-process payloads
# ----------------------------------------------------------------------

def test_payload_round_trip_re_records_locally(tmp_path):
    worker = Recorder()
    with worker.collect() as produced:
        worker.record(rec("d1", engine_path="compiled"))
        worker.record(rec("d2", kind="trial", inputs=("d1",)))
    payload = lineage_payload(produced)
    assert json.loads(json.dumps(payload)) == payload  # JSON-able

    sink = LineageStore(str(tmp_path / "l.jsonl"))
    merged = merge_lineage_payload(payload, sink=sink)
    assert [r.digest for r in merged] == ["d1", "d2"]
    assert sink.get("d2").inputs == ("d1",)


def test_merge_payload_tolerates_garbage():
    assert merge_lineage_payload(None) == []
    assert merge_lineage_payload("nope") == []
    assert merge_lineage_payload([{"not": "a record"}, 7]) == []
