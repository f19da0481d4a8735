"""Lease data layer: partitioning, wire codecs, journal replay."""

import json

from repro.cluster.leases import (
    JOURNAL_SCHEMA_VERSION,
    Lease,
    LeaseJournal,
    partition,
    plan_to_wire,
    ranges_of,
    space_from_wire,
)
from repro.explore.objectives import ObjectiveSchema
from repro.explore.space import get_space


def test_partition_covers_exactly():
    ranges = partition(10, 3)
    assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert partition(0, 4) == []
    assert partition(4, 100) == [(0, 4)]


def test_ranges_of_collapses_runs():
    assert ranges_of([0, 1, 2, 5, 6, 9]) == [(0, 3), (5, 7), (9, 10)]
    assert ranges_of([]) == []


def test_lease_remaining_tracks_progress():
    lease = Lease(id=1, lo=4, hi=10)
    assert lease.size == 6 and lease.remaining == 6
    lease.progress = 4
    assert lease.remaining == 2
    lease.hi = 8  # stolen tail
    assert lease.size == 4 and lease.remaining == 0


def test_wire_round_trip_preserves_fingerprint():
    """A worker rebuilding the space from the wire gets the same
    fingerprint — the integrity check before it writes any record."""
    space = get_space("tiny")
    schema = ObjectiveSchema()
    wire = json.loads(json.dumps(plan_to_wire(space, schema, space.size)))
    rebuilt = space_from_wire(wire["space"])
    assert rebuilt.fingerprint == space.fingerprint == wire["space_fp"]
    assert rebuilt.point(5) == space.point(5)
    assert ObjectiveSchema(names=tuple(wire["objectives"])).digest == \
        wire["schema_digest"]


def test_journal_round_trip_and_replay(tmp_path):
    path = str(tmp_path / "leases.journal")
    journal = LeaseJournal(path)
    journal.append({"event": "plan", "tasks_digest": "t1", "total": 10})
    journal.append({"event": "grant", "lease": 1, "lo": 0, "hi": 4})
    journal.append({"event": "complete", "lease": 1, "lo": 0, "hi": 4,
                    "done": 4})
    journal.append({"event": "expire", "lease": 2, "lo": 4, "hi": 8,
                    "progress": 1})
    journal.append({"event": "failed", "point": 17, "error": "boom"})

    state = LeaseJournal(path).replay()
    assert state.plan["tasks_digest"] == "t1"
    assert state.completed == [(0, 4)]
    assert state.failed_points == {17: "boom"}
    assert state.counters["grant"] == 1
    covered = state.covered(10)
    assert covered[:4] == [True] * 4 and not any(covered[4:])


def test_journal_partial_complete_covers_prefix(tmp_path):
    """A complete with done < hi-lo covers only the done prefix."""
    journal = LeaseJournal(str(tmp_path / "j"))
    journal.append({"event": "plan", "tasks_digest": "t", "total": 6})
    journal.append({"event": "complete", "lease": 1, "lo": 2, "hi": 6,
                    "done": 2})
    covered = journal.replay().covered(6)
    assert covered == [False, False, True, True, False, False]


def test_journal_new_plan_resets_replay(tmp_path):
    """Events before the last plan belong to a previous run."""
    journal = LeaseJournal(str(tmp_path / "j"))
    journal.append({"event": "plan", "tasks_digest": "old", "total": 4})
    journal.append({"event": "complete", "lease": 1, "lo": 0, "hi": 4,
                    "done": 4})
    journal.append({"event": "plan", "tasks_digest": "new", "total": 4})
    state = journal.replay()
    assert state.plan["tasks_digest"] == "new"
    assert state.completed == []


def test_journal_tolerates_torn_tail_and_junk(tmp_path):
    path = str(tmp_path / "j")
    journal = LeaseJournal(path)
    journal.append({"event": "plan", "tasks_digest": "t", "total": 4})
    journal.append({"event": "complete", "lease": 1, "lo": 0, "hi": 2,
                    "done": 2})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json\n")
        fh.write('{"event":"complete","schema":%d,"lo":2,"hi'
                 % JOURNAL_SCHEMA_VERSION)  # torn tail, no newline

    reloaded = LeaseJournal(path)
    assert reloaded.skipped_lines == 1 and reloaded.dropped_tail == 1
    state = reloaded.replay()
    assert state.completed == [(0, 2)]
