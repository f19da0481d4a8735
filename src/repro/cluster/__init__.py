"""repro.cluster — distributed sweep execution over the shared store.

The controller (:mod:`~repro.cluster.controller`) partitions a
:class:`~repro.explore.space.DesignSpace` sweep into *leases* of
mixed-radix point ranges and hands them to worker processes
(:mod:`~repro.cluster.worker`) over the same JSON-over-HTTP dialect
``repro.serve`` speaks.  Liveness is heartbeat-based (expiry requeues,
idle workers steal from the slowest lease), failed trials retry with
bounded backoff, and **exactly-once results come from content
digests, not delivery semantics**: workers append to per-worker
:class:`~repro.explore.store.ResultStore` WALs through the shared
:class:`~repro.store.DiskTier` (single-flight already dedupes
concurrent identical points), and the controller's merge deduplicates
on trial key — so at-least-once scheduling is harmless by
construction, and a ``kill -9`` of any worker (or the controller,
thanks to the lease journal) resumes to a bit-identical frontier.

:mod:`~repro.cluster.launch` packages the whole arrangement for one
host (``repro cluster run``), the CI chaos gate, and the scaling
bench.
"""

from repro.cluster.controller import ClusterController, ControllerServer
from repro.cluster.launch import (
    ControllerThread,
    bench_scaling,
    frontier_fingerprint,
    run_cluster,
    single_process_fingerprint,
    spawn_worker,
    worker_wal_paths,
)
from repro.cluster.leases import (
    JOURNAL_SCHEMA_VERSION,
    JournalState,
    Lease,
    LeaseJournal,
    partition,
    plan_to_wire,
    ranges_of,
    space_from_wire,
)
from repro.cluster.worker import (
    ClusterWorker,
    ControllerClient,
    ControllerUnreachable,
)

__all__ = [
    "ClusterController",
    "ClusterWorker",
    "ControllerClient",
    "ControllerServer",
    "ControllerThread",
    "ControllerUnreachable",
    "JOURNAL_SCHEMA_VERSION",
    "JournalState",
    "Lease",
    "LeaseJournal",
    "bench_scaling",
    "frontier_fingerprint",
    "partition",
    "plan_to_wire",
    "preregister_cluster_metrics",
    "ranges_of",
    "run_cluster",
    "single_process_fingerprint",
    "space_from_wire",
    "spawn_worker",
    "worker_wal_paths",
]


def preregister_cluster_metrics(registry=None) -> None:
    """Create zero cells for every cluster metric (PR 8 store pattern:
    a scrape sees explicit zeros, not missing series).  Called by the
    controller server on start and by the serving layer's
    pre-registration pass."""
    from repro.obs.metrics import REGISTRY
    from repro.store.appendlog import LOG_COUNTERS

    reg = registry if registry is not None else REGISTRY
    reg.counter("cluster_leases_granted_total",
                "lease grants handed to workers").inc(0)
    reg.counter("cluster_leases_completed_total",
                "leases completed by workers").inc(0)
    reg.counter("cluster_leases_expired_total",
                "leases whose heartbeat went stale, requeued").inc(0)
    reg.counter("cluster_leases_stolen_total",
                "lease tails split off for idle workers").inc(0)
    reg.counter("cluster_trials_retried_total",
                "trial evaluations retried after failure").inc(0)
    reg.counter("cluster_trials_failed_total",
                "trials that exhausted their retry budget").inc(0)
    reg.counter("cluster_heartbeats_total",
                "worker heartbeats received").inc(0)
    for suffix, help_text in LOG_COUNTERS.items():
        reg.counter(f"cluster_journal_{suffix}_total", help_text).inc(0)
    reg.gauge("cluster_workers_live",
              "workers heard from within one lease TTL").set(0)
    reg.gauge("cluster_points_remaining",
              "task-array points not yet covered by a completed lease"
              ).set(0)
    age = reg.histogram(
        "cluster_heartbeat_age_seconds",
        "gap between consecutive heartbeats of one lease")
    with age._lock:
        age._cell("")
