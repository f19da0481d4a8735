"""Lease bookkeeping for distributed sweeps: ranges, journal, wire plan.

A *lease* is a contiguous ``[lo, hi)`` slice of the controller's task
array (the ordered list of design-space point indices a shardable
strategy planned — see :func:`repro.explore.strategies.static_plan`).
Leases are the unit of grant, heartbeat, expiry, and theft; point
indices themselves never need to be dense or ordered, so a resumed
sweep with holes partitions exactly like a fresh one.

The :class:`LeaseJournal` is an append-only JSONL file recording the
lease lifecycle (``plan`` / ``grant`` / ``complete`` / ``expire`` /
``steal`` / ``failed``).  It exists for *controller* crash-resume: on
restart the controller replays the journal, and every task offset a
``complete`` event covers is skipped — workers' WAL records are the
ground truth for result bytes, the journal only restores scheduling
state.  The journal is an :class:`repro.store.appendlog.AppendLog`: a
torn tail left by a controller killed mid-append is repaired on open,
so the first event appended after a restart survives the next resume.
A ``plan`` event resets replay state, so one journal file can serve
many runs over the same output directory; replay honors only the last
plan and the events after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.explore.objectives import ObjectiveSchema
from repro.explore.space import DesignSpace, Dimension
from repro.store.appendlog import AppendLog

#: bump when the journal event layout changes incompatibly.
JOURNAL_SCHEMA_VERSION = 1


def partition(total: int, lease_size: int) -> List[Tuple[int, int]]:
    """Chop ``[0, total)`` into ``[lo, hi)`` ranges of ``lease_size``."""
    if lease_size < 1:
        raise ValueError("lease_size must be >= 1")
    return [(lo, min(lo + lease_size, total))
            for lo in range(0, total, lease_size)]


def ranges_of(offsets: Sequence[int]) -> List[Tuple[int, int]]:
    """Collapse sorted task offsets into maximal contiguous ranges."""
    out: List[Tuple[int, int]] = []
    for offset in offsets:
        if out and out[-1][1] == offset:
            out[-1] = (out[-1][0], offset + 1)
        else:
            out.append((offset, offset + 1))
    return out


@dataclass
class Lease:
    """One granted (or pending) slice of the task array."""

    id: int
    lo: int
    hi: int
    worker: str = ""
    #: pending | granted | completed | expired
    status: str = "pending"
    #: heartbeat-confirmed points done, counted from ``lo``.
    progress: int = 0
    granted_t: float = 0.0
    heartbeat_t: float = 0.0
    #: times this range (or an ancestor of it) was requeued by expiry.
    reassignments: int = 0

    @property
    def size(self) -> int:
        return self.hi - self.lo

    @property
    def remaining(self) -> int:
        return max(0, self.size - self.progress)


# ----------------------------------------------------------------------
# wire codecs — what a worker needs to rebuild the evaluation context
# ----------------------------------------------------------------------

def plan_to_wire(space: DesignSpace, schema: ObjectiveSchema,
                 total_tasks: int) -> Dict[str, Any]:
    """Serialize the evaluation plan for worker hand-off.

    Carries the space *content* (not just its name) so ad-hoc spaces
    work, plus both fingerprints so the worker can verify its
    reconstruction is bit-equivalent before writing any record.
    """
    return {
        "space": {
            "name": space.name,
            "base": space.base,
            "dimensions": [[dim.knob, list(dim.values)]
                           for dim in space.dimensions],
        },
        "space_fp": space.fingerprint,
        "objectives": list(schema.names),
        "schema_digest": schema.digest,
        "total_tasks": total_tasks,
    }


def space_from_wire(payload: Dict[str, Any]) -> DesignSpace:
    """Rebuild a :class:`DesignSpace` from :func:`plan_to_wire` output."""
    return DesignSpace(
        name=payload["name"],
        base=payload.get("base"),
        dimensions=tuple(
            Dimension(knob, tuple(values))
            for knob, values in payload["dimensions"]),
    )


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------

@dataclass
class JournalState:
    """What replaying a journal recovers (last plan onward)."""

    plan: Optional[Dict[str, Any]] = None
    #: task-offset ranges whose leases completed.
    completed: List[Tuple[int, int]] = field(default_factory=list)
    #: space point indices that exhausted their retry budget.
    failed_points: Dict[int, str] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    def covered(self, total: int) -> List[bool]:
        """Boolean coverage over the task array."""
        done = [False] * total
        for lo, hi in self.completed:
            for offset in range(max(lo, 0), min(hi, total)):
                done[offset] = True
        return done


class LeaseJournal(AppendLog):
    """Append-only JSONL lifecycle journal (an :class:`AppendLog`)."""

    metric_prefix = "cluster_journal"

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._events: List[Dict[str, Any]] = []
        for event in self._read_log():
            if (event.get("schema") != JOURNAL_SCHEMA_VERSION
                    or "event" not in event):
                self.skipped_lines += 1
                continue
            self._events.append(event)

    def events(self) -> List[Dict[str, Any]]:
        return list(self._events)

    def append(self, event: Dict[str, Any]) -> None:
        """Record one lifecycle event (one line-atomic append).  A failed
        write is counted, not raised: losing an event only costs
        re-running an already-idempotent lease on resume."""
        payload = dict(event)
        payload["schema"] = JOURNAL_SCHEMA_VERSION
        self._events.append(payload)
        self._append_log([payload])

    # ------------------------------------------------------------------
    def replay(self) -> JournalState:
        """Fold events (last ``plan`` onward) into resumable state."""
        state = JournalState()
        for event in self._events:
            kind = event.get("event")
            if kind == "plan":
                state = JournalState(plan=event)
                continue
            if state.plan is None:
                continue
            state.counters[kind] = state.counters.get(kind, 0) + 1
            if kind == "complete":
                lo, hi = int(event.get("lo", 0)), int(event.get("hi", 0))
                done = int(event.get("done", hi - lo))
                if done > 0:
                    state.completed.append((lo, lo + min(done, hi - lo)))
            elif kind == "failed":
                point = event.get("point")
                if isinstance(point, int):
                    state.failed_points[point] = str(event.get("error", ""))
        return state
