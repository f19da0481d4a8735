"""``repro.store``: the unified content-addressed storage subsystem.

One tier protocol — :class:`MemoryTier` (private per-process LRU),
:class:`DiskTier` (sharded, atomic, quarantining), composed by
:class:`StoreStack` with read-through/write-back promotion and
cross-process single-flight (:class:`DigestLock`).  The engine cache,
the explore result store's compacted segment, serving workers, and the
provenance walkers all sit on this one layer; the explore WAL, the
lineage sidecars and the cluster lease journal share one crash-safe
JSONL :class:`AppendLog`.  ``docs/STORAGE.md`` is the design note.
"""

from repro.store.appendlog import AppendLog
from repro.store.locks import HAVE_FLOCK, DigestLock
from repro.store.maintenance import (
    gc_store,
    migrate_store,
    stat_store,
    verify_store,
)
from repro.store.tiers import (
    LOCK_ENV,
    MANIFEST_NAME,
    OBJECTS_DIR,
    QUARANTINE_DIR,
    SHARD_WIDTH,
    STORE_LAYOUT_VERSION,
    DiskTier,
    Flight,
    LRUCache,
    MemoryTier,
    StoreStack,
    iter_entry_paths,
    locking_default,
)

__all__ = [
    "AppendLog",
    "HAVE_FLOCK",
    "DigestLock",
    "LOCK_ENV",
    "MANIFEST_NAME",
    "OBJECTS_DIR",
    "QUARANTINE_DIR",
    "SHARD_WIDTH",
    "STORE_LAYOUT_VERSION",
    "DiskTier",
    "Flight",
    "LRUCache",
    "MemoryTier",
    "StoreStack",
    "iter_entry_paths",
    "locking_default",
    "gc_store",
    "migrate_store",
    "stat_store",
    "verify_store",
    "preregister_store_metrics",
]


def preregister_store_metrics(registry=None) -> None:
    """Create zero cells for every store metric (PR 7 convention: a
    scrape sees explicit zeros, not missing series).  The serving
    layer calls this from its own pre-registration pass."""
    from repro.obs.metrics import REGISTRY

    reg = registry if registry is not None else REGISTRY
    hits = reg.counter("store_hit_total", "store reads served, by tier")
    hits.inc(0, tier="memory")
    hits.inc(0, tier="disk")
    reg.counter("store_miss_total",
                "store reads missing every tier").inc(0)
    reg.counter("store_promote_total",
                "disk hits promoted into the memory tier").inc(0)
    reg.counter("store_quarantined_total",
                "torn or unparsable store entries moved to quarantine").inc(0)
    reg.counter("store_gc_removed_total",
                "files removed by store gc (entries, temp orphans, "
                "quarantine)").inc(0)
    reg.counter("store_write_failed_total",
                "store disk writes dropped on OSError").inc(0)
    wait = reg.histogram(
        "store_lock_wait_seconds",
        "time spent waiting on another process's flight for the same "
        "digest")
    with wait._lock:
        wait._cell("")
