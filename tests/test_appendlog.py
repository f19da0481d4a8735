"""The crash and torn-write fault matrix every append log must pass.

One matrix, parametrized over the three owners of
:class:`repro.store.appendlog.AppendLog` — the explore result WAL, the
lineage sidecar and the cluster lease journal:

* the last record cut at every byte offset, reopened, one more record
  appended after the "restart", reopened again: every earlier record
  and the post-restart record survive, and each repair is counted
  under the owner's counter prefix;
* interior garbage, non-object JSON and foreign-schema lines are
  skipped and counted;
* a failed append is counted, never raised;
* two processes appending to one file never interleave inside a line;
* a compaction whose WAL truncate fails still reloads every record
  exactly once.
"""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

import pytest

from repro.cluster.leases import LeaseJournal
from repro.explore.store import ResultStore
from repro.obs import OBS_STATE
from repro.obs.metrics import MetricsRegistry
from repro.provenance import LineageRecord, LineageStore
from repro.store import appendlog
from repro.store.appendlog import canonical_line


@dataclass(frozen=True)
class Owner:
    """How the matrix drives one append-log owner."""

    name: str
    open: Callable[[str], Any]
    append: Callable[[Any, str], None]
    ids: Callable[[Any], List[str]]
    #: a well-formed JSON object line the owner rejects.
    foreign: Dict[str, Any]


OWNERS = [
    Owner(
        name="explore_wal",
        open=ResultStore,
        append=lambda log, rid: log.put(
            rid, {"arch_name": f"m-{rid}", "objectives": {"mcpi": 1.0}}),
        ids=lambda log: [record["key"] for record in log.records()],
        foreign={"schema": 999, "key": "alien"},
    ),
    Owner(
        name="lineage_sidecar",
        open=LineageStore,
        append=lambda log, rid: log.append(
            LineageRecord(digest=rid, kind="execution", spec_fp=f"s-{rid}")),
        ids=lambda log: [record.digest for record in log.records()],
        foreign={"v": 1, "kind": "execution"},  # no digest
    ),
    Owner(
        name="lease_journal",
        open=LeaseJournal,
        append=lambda log, rid: log.append(
            {"event": "complete", "lease": rid, "lo": 0, "hi": 4, "done": 4}),
        ids=lambda log: [event["lease"] for event in log.events()],
        foreign={"schema": 999, "event": "plan"},
    ),
]
OWNER_BY_NAME = {owner.name: owner for owner in OWNERS}

each_owner = pytest.mark.parametrize(
    "owner", OWNERS, ids=[owner.name for owner in OWNERS])


@pytest.fixture
def count(monkeypatch):
    """Route the logs' counters to a private registry (the process-wide
    one is shared with other tests); ``count(log, suffix)`` reads one."""
    registry = MetricsRegistry()
    monkeypatch.setattr(appendlog, "_METRICS", registry)
    monkeypatch.setattr(OBS_STATE, "metrics_on", True)

    def read(log, suffix):
        metric = registry.get(f"{log.metric_prefix}_{suffix}_total")
        return metric.total() if metric is not None else 0

    return read


@each_owner
def test_torn_last_record_at_every_offset_survives_restart(
        tmp_path, owner, count):
    seed = tmp_path / "seed.jsonl"
    log = owner.open(str(seed))
    for rid in ("r0", "r1", "r2"):
        owner.append(log, rid)
    data = seed.read_bytes()
    head = data[:data.rstrip(b"\n").rfind(b"\n") + 1]
    last = data[len(head):]  # "r2", newline included
    for cut in range(len(last)):
        path = str(tmp_path / f"cut{cut}.jsonl")
        with open(path, "wb") as fh:
            fh.write(head + last[:cut])
        restarted = owner.open(path)
        # only the complete record without its newline parses
        whole = cut == len(last) - 1
        assert restarted.recovered_tail == int(whole), cut
        assert restarted.dropped_tail == int(0 < cut < len(last) - 1), cut
        owner.append(restarted, "after")
        ids = owner.ids(owner.open(path))
        assert ids == ["r0", "r1"] + (["r2"] if whole else []) + ["after"], cut
    assert count(log, "tail_recovered") == 1
    assert count(log, "lines_dropped") == len(last) - 2


@each_owner
def test_interior_garbage_and_foreign_lines_are_skipped_and_counted(
        tmp_path, owner):
    path = str(tmp_path / "log.jsonl")
    log = owner.open(path)
    owner.append(log, "r0")
    with open(path, "ab") as fh:
        fh.write(b"not json\n")
        fh.write(b'["a", "json", "array"]\n')
        fh.write(canonical_line(owner.foreign).encode("utf-8") + b"\n")
    owner.append(log, "r1")
    reopened = owner.open(path)
    assert owner.ids(reopened) == ["r0", "r1"]
    assert reopened.skipped_lines == 3
    assert reopened.recovered_tail == reopened.dropped_tail == 0


# each appender opens the log, then waits for the other (a file barrier)
# so their 200 appends overlap in time
@each_owner
def test_failed_append_is_counted_not_raised(tmp_path, owner, count):
    log = owner.open(str(tmp_path / "no" / "such" / "dir" / "log.jsonl"))
    owner.append(log, "r0")  # the OSError is swallowed
    assert count(log, "write_failed") == 1
    assert owner.ids(log) == ["r0"]  # the in-memory state carries on


_APPENDER = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
import test_appendlog
owner = test_appendlog.OWNER_BY_NAME[sys.argv[2]]
path, tag = sys.argv[3:]
log = owner.open(path)
open(f"{path}.ready-{tag}", "w").close()
while not all(os.path.exists(f"{path}.ready-{t}") for t in "ab"):
    time.sleep(0.0005)
for i in range(200):
    owner.append(log, f"{tag}-{i}")
"""


def _child_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@each_owner
def test_two_processes_append_whole_lines(tmp_path, owner):
    path = str(tmp_path / "log.jsonl")
    procs = [subprocess.Popen(
        [sys.executable, "-c", _APPENDER, os.path.dirname(__file__),
         owner.name, path, tag], env=_child_env())
        for tag in "ab"]
    try:
        for proc in procs:
            assert proc.wait(timeout=60) == 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 400
    assert all(isinstance(json.loads(line), dict) for line in lines)
    ids = owner.ids(owner.open(path))
    assert sorted(ids) == sorted(f"{tag}-{i}" for tag in "ab"
                                 for i in range(200))


def test_compact_with_failed_wal_truncate_reloads_every_record_once(
        tmp_path, monkeypatch):
    owner = OWNER_BY_NAME["explore_wal"]
    path = str(tmp_path / "trials.jsonl")
    store = owner.open(path)
    for i in range(5):
        owner.append(store, f"r{i}")
    before = {record["key"]: record for record in store.records()}
    real_replace = os.replace

    def replace(src, dst, **kwargs):
        if dst == path:
            raise OSError("injected: WAL truncate fails")
        real_replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    assert store.compact() == 5
    monkeypatch.undo()
    # the segment holds everything and the WAL still does too
    reloaded = owner.open(path)
    assert reloaded.compacted_loaded == 5
    assert sorted(owner.ids(reloaded)) == sorted(before)
    assert {record["key"]: record for record in reloaded.records()} == before
    assert not [name for name in os.listdir(tmp_path) if ".tmp." in name]
